package tensor

import (
	"math/rand"
	"testing"
)

// sample checks out a fixed mix of matrices and slices whose total grows
// with n (11n elements), standing in for one graph's forward pass.
func sample(ws *Workspace, n int) {
	ws.Reset()
	ws.Matrix(n, 7)
	ws.Floats(3 * n)
	ws.Matrix(1, n)
}

func TestWorkspaceReuseAndStats(t *testing.T) {
	ws := NewWorkspace()
	m1 := ws.Matrix(2, 6)
	f1 := ws.Floats(5)
	if len(m1.Data) != 12 || len(f1) != 5 {
		t.Fatalf("unexpected checkout shapes")
	}
	ws.Reset()
	if m1.Data != nil {
		t.Errorf("Reset left a stale header pointing at the slab")
	}
	// Headers are reused in checkout order and reshaped per checkout.
	m2 := ws.Matrix(3, 4)
	if m2 != m1 || m2.Rows != 3 || m2.Cols != 4 || len(m2.Data) != 12 {
		t.Errorf("second pass got header %p %dx%d, want %p 3x4", m2, m2.Rows, m2.Cols, m1)
	}
	ws.Reset()
	// The cold pass outgrew its first chunk; Reset consolidated to one
	// slab of exactly the pass's total.
	if st := ws.Stats(); st.Checkouts != 3 || st.Bytes != 8*(12+5) {
		t.Errorf("stats %+v, want 3 checkouts and %d bytes", st, 8*(12+5))
	}
	// Checkouts are consecutive, dirty views of that slab: what one pass
	// writes, the next pass reads back under a different carve-up.
	all := ws.Floats(17)
	for i := range all {
		all[i] = float64(i)
	}
	ws.Reset()
	m, f := ws.Matrix(3, 4), ws.Floats(5)
	if m.Data[0] != 0 || m.Data[11] != 11 || f[0] != 12 || f[4] != 16 {
		t.Errorf("checkouts are not consecutive dirty views of one slab: %v %v", m.Data, f)
	}
	// Steady state allocates nothing — for the sizes seen and for smaller
	// ones never seen.
	allocs := testing.AllocsPerRun(10, func() {
		ws.Reset()
		ws.Matrix(3, 4)
		ws.Floats(5)
		ws.Reset()
		ws.Floats(2)
		ws.Matrix(7, 2)
	})
	if allocs > 0 {
		t.Errorf("steady-state workspace cycle allocated %.1f objects, want 0", allocs)
	}
}

// TestWorkspaceBytesTrackLargestSample is the arena's reason to exist: the
// footprint after any stream of distinct sizes is the footprint of the
// largest one alone, however many sizes came before it.
func TestWorkspaceBytesTrackLargestSample(t *testing.T) {
	const largest = 500
	alone := NewWorkspace()
	sample(alone, largest)
	alone.Reset()
	want := alone.Stats().Bytes
	if want != 8*11*largest {
		t.Fatalf("largest sample alone holds %d bytes, want %d", want, 8*11*largest)
	}
	for _, n := range []int{4, 64, 400} {
		sizes := rand.New(rand.NewSource(int64(n))).Perm(largest)[:n]
		sizes[n/2] = largest - 1 // Perm yields 0..largest-1; sample gets size+1
		ws := NewWorkspace()
		for _, s := range sizes {
			sample(ws, s+1)
		}
		ws.Reset()
		if got := ws.Stats().Bytes; got != want {
			t.Errorf("after %d distinct sizes the workspace holds %d bytes, want %d (the largest alone)", n, got, want)
		}
		if allocs := testing.AllocsPerRun(5, func() { sample(ws, 1+rand.Intn(largest)) }); allocs > 0 {
			t.Errorf("after %d sizes a random size allocated %.1f objects, want 0", n, allocs)
		}
	}
}

func TestWorkspaceOverflowChunk(t *testing.T) {
	ws := NewWorkspace()
	sample(ws, 1)
	sample(ws, 1) // warm: one 11-element slab
	ws.Reset()
	a := ws.Floats(8)
	for i := range a {
		a[i] = float64(i + 1)
	}
	b := ws.Floats(100) // outgrows the slab: a stays where it is
	for i := range b {
		b[i] = -1
	}
	c := ws.Matrix(5, 5)
	c.Zero()
	for i, v := range a {
		if v != float64(i+1) {
			t.Fatalf("overflow clobbered an earlier checkout: a[%d] = %g", i, v)
		}
	}
	if b[0] != -1 || b[99] != -1 {
		t.Fatalf("overflow clobbered its own chunk")
	}
	ws.Reset()
	if got, want := ws.Stats().Bytes, uint64(8*(8+100+25)); got != want {
		t.Errorf("after the overflow pass the workspace holds %d bytes, want one slab of %d", got, want)
	}
	allocs := testing.AllocsPerRun(10, func() {
		ws.Reset()
		ws.Floats(8)
		ws.Floats(100)
		ws.Matrix(5, 5)
	})
	if allocs > 0 {
		t.Errorf("pass after the overflow allocated %.1f objects, want 0", allocs)
	}
}

// TestWorkspaceDropsOverCapSlab: a sample above maxRetainElems runs, but its
// scratch is released at Reset instead of kept. (The big checkouts are never
// written, so the test touches no more memory than the small ones.)
func TestWorkspaceDropsOverCapSlab(t *testing.T) {
	ws := NewWorkspace()
	if got := len(ws.Floats(maxRetainElems + 1)); got != maxRetainElems+1 {
		t.Fatalf("over-cap checkout has length %d", got)
	}
	ws.Reset()
	if got := ws.Stats().Bytes; got != 0 {
		t.Errorf("a lone over-cap checkout left %d bytes behind, want 0", got)
	}
	ws.Floats(16)
	ws.Reset()
	if got := ws.Stats().Bytes; got != 8*16 {
		t.Errorf("small sample after the drop holds %d bytes, want %d", got, 8*16)
	}
	ws.Floats(16)
	ws.Floats(maxRetainElems) // total is over the cap, no single chunk is
	ws.Reset()
	if got := ws.Stats().Bytes; got != 0 {
		t.Errorf("an over-cap sample left %d bytes behind, want 0", got)
	}
	ws.Floats(maxRetainElems) // exactly at the cap is kept
	ws.Reset()
	if got := ws.Stats().Bytes; got != 8*maxRetainElems {
		t.Errorf("an at-cap sample left %d bytes behind, want %d", got, 8*maxRetainElems)
	}
}

// TestWorkspaceZeroLengthCheckouts: the empty-graph path checks out 0×c
// matrices. They start where the next checkout starts, which must not read
// as aliasing to the kernels' sameBuffer guards.
func TestWorkspaceZeroLengthCheckouts(t *testing.T) {
	ws := NewWorkspace()
	b := New(5, 3)
	for pass := 0; pass < 2; pass++ { // cold, then warm on the slab
		ws.Reset()
		a := ws.Matrix(0, 5)
		dst := ws.Matrix(0, 3)
		next := ws.Matrix(2, 5)
		if sameBuffer(a, next) || sameBuffer(dst, next) || sameBuffer(a, dst) {
			t.Fatalf("pass %d: an empty checkout reads as aliasing its neighbour", pass)
		}
		MatMulInto(dst, a, b)
		TInto(ws.Matrix(5, 0), a)
		if f := ws.Floats(0); len(f) != 0 {
			t.Fatalf("pass %d: Floats(0) has length %d", pass, len(f))
		}
		out := ws.Matrix(2, 3)
		MatMulInto(out, next, b) // a full-size neighbour of the empties still works
	}
}

func TestWorkspaceAppendDoesNotBleed(t *testing.T) {
	ws := NewWorkspace()
	for pass := 0; pass < 2; pass++ {
		ws.Reset()
		a, b := ws.Floats(4), ws.Floats(4)
		for i := range b {
			a[i], b[i] = 1, 5
		}
		a = append(a, 99)
		if b[0] != 5 {
			t.Fatalf("pass %d: append on a checkout wrote its neighbour: b[0] = %g", pass, b[0])
		}
		if a[0] != 1 || a[4] != 99 {
			t.Fatalf("pass %d: append lost the checkout's contents: %v", pass, a)
		}
	}
}

func TestNilWorkspaceDegradesToFreshAllocation(t *testing.T) {
	var ws *Workspace
	m := ws.Matrix(2, 3)
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("nil-workspace matrix not zeroed")
		}
	}
	f := ws.Floats(4)
	if len(f) != 4 {
		t.Fatalf("nil-workspace floats length %d", len(f))
	}
	ws.Reset() // must not panic
	if st := ws.Stats(); st.Checkouts != 0 || st.Bytes != 0 {
		t.Fatalf("nil-workspace stats %+v, want zeros", st)
	}
}
