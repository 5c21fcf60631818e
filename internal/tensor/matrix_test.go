package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroInitialized(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("unexpected contents: %v", m)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("want error for ragged rows")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("want 0x0, got %dx%d", m.Rows, m.Cols)
	}
}

// mat is FromRows that panics on ragged input, for literals.
func mat(rows [][]float64) *Matrix {
	m, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// matMul returns a·b through MatMulInto.
func matMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// add returns a+b through AddInto.
func add(a, b *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	AddInto(out, a, b)
	return out
}

// transpose returns mᵀ by a per-element loop.
func transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

func TestMatMul(t *testing.T) {
	a := mat([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := mat([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := matMul(a, b)
	want := mat([][]float64{{58, 64}, {139, 154}})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Uniform(rng, 4, 4, -1, 1)
	eye := New(4, 4)
	for i := 0; i < 4; i++ {
		eye.Set(i, i, 1)
	}
	if !Equal(matMul(a, eye), a, 1e-12) {
		t.Fatal("a*I != a")
	}
	if !Equal(matMul(eye, a), a, 1e-12) {
		t.Fatal("I*a != a")
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on inner-dimension mismatch")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(2, 3))
}

func TestMatMulTransposeProperty(t *testing.T) {
	// (AB)^T == B^T A^T, with the transposes taken by the transposed-operand
	// kernels: Bᵀ·Aᵀ = MatMulTAInto(B, Aᵀ) = MatMulTBInto(Bᵀ, A).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Uniform(rng, n, k, -3, 3)
		b := Uniform(rng, k, m, -3, 3)
		want := transpose(matMul(a, b))
		ta := New(m, n)
		MatMulTAInto(ta, b, transpose(a))
		tb := New(m, n)
		MatMulTBInto(tb, transpose(b), a)
		return Equal(ta, want, 1e-9) && Equal(tb, want, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddDistributesOverMatMul(t *testing.T) {
	// A(B+C) == AB + AC
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, m := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Uniform(rng, n, k, -2, 2)
		b := Uniform(rng, k, m, -2, 2)
		c := Uniform(rng, k, m, -2, 2)
		return Equal(matMul(a, add(b, c)), add(matMul(a, b), matMul(a, c)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcat(t *testing.T) {
	a := mat([][]float64{{1, 2}, {3, 4}})
	b := mat([][]float64{{5}, {6}})
	h := HConcat(a, b)
	if !Equal(h, mat([][]float64{{1, 2, 5}, {3, 4, 6}}), 0) {
		t.Fatalf("hconcat: %v", h)
	}
}

func TestSliceAndSelect(t *testing.T) {
	m := mat([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if got := m.SliceCols(1, 3); !Equal(got, mat([][]float64{{2, 3}, {5, 6}, {8, 9}}), 0) {
		t.Fatalf("slice cols: %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := mat([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := GlorotUniform(rng, 30, 20)
	limit := math.Sqrt(6.0 / 50.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("value %v outside ±%v", v, limit)
		}
	}
	// Not all zero.
	if Equal(m, New(30, 20), 0) {
		t.Fatal("all zeros")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(1, 2), New(2, 1), 1) {
		t.Fatal("shape mismatch reported equal")
	}
}

func TestAddInPlace(t *testing.T) {
	a := mat([][]float64{{1, 2}})
	a.AddInPlace(mat([][]float64{{10, 20}}))
	if !Equal(a, mat([][]float64{{11, 22}}), 0) {
		t.Fatalf("addinplace: %v", a)
	}
}

func TestZeroAndFill(t *testing.T) {
	m := mat([][]float64{{1, 2}, {3, 4}})
	m.Fill(7)
	if !Equal(m, mat([][]float64{{7, 7}, {7, 7}}), 0) {
		t.Fatalf("fill: %v", m)
	}
	m.Zero()
	if !Equal(m, New(2, 2), 0) {
		t.Fatalf("zero: %v", m)
	}
}
