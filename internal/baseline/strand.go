package baseline

import (
	"hash/fnv"
	"math"

	"repro/internal/acfg"
	"repro/internal/dataset"
	"repro/internal/nn"
)

// Strand is the gene-sequence-classifier baseline of [15] ("Polymorphic
// malware detection using sequence classification methods"): each sample is
// rendered as a symbol sequence, shingled into k-mers, sketched with
// MinHash, and classified by the largest mean estimated Jaccard similarity
// to the per-class reference sketches. The sequence here is a BFS walk over
// the ACFG emitting one quantized symbol per basic block, which preserves
// the "sequence of coarse gene symbols" character of the original method.
type Strand struct {
	K          int // shingle length
	Signature  int // MinHash signature size
	MaxPerSide int // reference sketches kept per class

	classes int
	refs    [][]signature // per class
}

type signature []uint64

// NewStrand returns the classifier with k = 4 shingles and 64-hash
// signatures.
func NewStrand() *Strand {
	return &Strand{K: 4, Signature: 64, MaxPerSide: 40}
}

// Fit stores MinHash sketches of training samples (implements
// eval.Classifier).
func (st *Strand) Fit(train *dataset.Dataset) error {
	st.classes = train.NumClasses()
	st.refs = make([][]signature, st.classes)
	for _, s := range train.Samples {
		if len(st.refs[s.Label]) >= st.MaxPerSide {
			continue
		}
		st.refs[s.Label] = append(st.refs[s.Label], st.sketch(s.ACFG))
	}
	return nil
}

// Predict scores each class by its mean top-similarity (implements
// eval.Classifier).
func (st *Strand) Predict(s *dataset.Sample) []float64 {
	sig := st.sketch(s.ACFG)
	scores := make([]float64, st.classes)
	for c := 0; c < st.classes; c++ {
		best, second := 0.0, 0.0
		for _, ref := range st.refs[c] {
			sim := jaccardEstimate(sig, ref)
			if sim > best {
				second = best
				best = sim
			} else if sim > second {
				second = sim
			}
		}
		// Mean of the two closest references: robust to outliers.
		scores[c] = (best + second) / 2 * 10
	}
	return nn.Softmax(scores)
}

// sketch converts an ACFG into a MinHash signature of its k-mer shingles.
func (st *Strand) sketch(a *acfg.ACFG) signature {
	seq := st.sequence(a)
	sig := make(signature, st.Signature)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	if len(seq) < st.K {
		return sig
	}
	for i := 0; i+st.K <= len(seq); i++ {
		base := hashSymbols(seq[i : i+st.K])
		for h := 0; h < st.Signature; h++ {
			// Family of hash functions via splitmix-style remixing.
			v := remix(base + uint64(h)*0x9e3779b97f4a7c15)
			if v < sig[h] {
				sig[h] = v
			}
		}
	}
	return sig
}

// sequence renders the ACFG as a BFS-ordered list of quantized block
// symbols.
func (st *Strand) sequence(a *acfg.ACFG) []uint32 {
	n := a.NumVertices()
	if n == 0 {
		return nil
	}
	visited := make([]bool, n)
	var seq []uint32
	// BFS from every unvisited vertex in index order so disconnected
	// components still contribute.
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		queue := []int{start}
		visited[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			seq = append(seq, blockSymbol(a, v))
			for _, w := range a.Graph.Succ(v) {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return seq
}

// blockSymbol quantizes a block's attribute row into a coarse symbol: the
// dominant instruction category plus log-bucketed size and degree.
func blockSymbol(a *acfg.ACFG, v int) uint32 {
	row := a.Attrs.Row(v)
	cats := []int{
		acfg.AttrMov, acfg.AttrArithmetic, acfg.AttrCompare,
		acfg.AttrCall, acfg.AttrTransfer, acfg.AttrDataDeclaration,
	}
	dom, domV := 0, -1.0
	for i, c := range cats {
		if row[c] > domV {
			dom, domV = i, row[c]
		}
	}
	size := logBucket(int(row[acfg.AttrTotalInstructions]))
	deg := logBucket(int(row[acfg.AttrOffspring]))
	return uint32(dom)<<16 | uint32(size)<<8 | uint32(deg)
}

func hashSymbols(syms []uint32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, s := range syms {
		buf[0] = byte(s)
		buf[1] = byte(s >> 8)
		buf[2] = byte(s >> 16)
		buf[3] = byte(s >> 24)
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

func remix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// jaccardEstimate is the fraction of agreeing MinHash slots.
func jaccardEstimate(a, b signature) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	match := 0
	for i := range a {
		if a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(len(a))
}
