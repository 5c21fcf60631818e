package baseline

import (
	"math"
	"math/rand"
	"sort"
)

// treeNode is a binary CART node used by both the classification and
// regression trees. Leaves carry either a class-probability vector
// (classification) or a scalar value (regression).
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode

	probs []float64 // classification leaf
	value float64   // regression leaf
}

func (n *treeNode) isLeaf() bool { return n.left == nil }

// route walks a sample to its leaf.
func (n *treeNode) route(x []float64) *treeNode {
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// DecisionTree is a CART classifier (gini impurity) with optional feature
// subsampling for random-forest use.
type DecisionTree struct {
	MaxDepth    int
	MinSamples  int
	MaxFeatures int // 0 = all features

	classes int
	root    *treeNode
	rng     *rand.Rand
}

// NewDecisionTree returns a tree with the given growth limits.
func NewDecisionTree(maxDepth, minSamples int) *DecisionTree {
	return &DecisionTree{MaxDepth: maxDepth, MinSamples: minSamples}
}

// Fit grows the tree on (xs, ys) with labels in [0, classes).
func (t *DecisionTree) Fit(xs [][]float64, ys []int, classes int, rng *rand.Rand) {
	t.classes = classes
	t.rng = rng
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(xs, ys, idx, 0)
}

// PredictProbs returns the class distribution at the leaf x falls into.
func (t *DecisionTree) PredictProbs(x []float64) []float64 {
	leaf := t.root.route(x)
	out := make([]float64, len(leaf.probs))
	copy(out, leaf.probs)
	return out
}

func (t *DecisionTree) grow(xs [][]float64, ys []int, idx []int, depth int) *treeNode {
	counts := make([]float64, t.classes)
	for _, i := range idx {
		counts[ys[i]]++
	}
	total := float64(len(idx))
	node := &treeNode{probs: make([]float64, t.classes)}
	for c := range counts {
		node.probs[c] = counts[c] / total
	}
	if depth >= t.MaxDepth || len(idx) < t.MinSamples || isPure(counts, total) {
		return node
	}
	feature, threshold, ok := t.bestGiniSplit(xs, ys, idx, counts, total)
	if !ok {
		return node
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if xs[i][feature] <= threshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return node
	}
	node.feature = feature
	node.threshold = threshold
	node.left = t.grow(xs, ys, leftIdx, depth+1)
	node.right = t.grow(xs, ys, rightIdx, depth+1)
	return node
}

func isPure(counts []float64, total float64) bool {
	for _, c := range counts {
		// Class counts are integer-valued (incremented by 1) and never
		// exceed the total, so >= holds exactly when the count equals it.
		if c >= total {
			return true
		}
	}
	return false
}

// bestGiniSplit scans (a subsample of) features for the split with the
// lowest weighted gini impurity.
func (t *DecisionTree) bestGiniSplit(xs [][]float64, ys []int, idx []int, counts []float64, total float64) (int, float64, bool) {
	dim := len(xs[0])
	features := featureSubset(t.rng, dim, t.MaxFeatures)

	bestGini := math.Inf(1)
	bestFeature, bestThreshold := -1, 0.0

	vals := make([]float64, len(idx))
	order := make([]int, len(idx))
	for _, f := range features {
		for k, i := range idx {
			vals[k] = xs[i][f]
			order[k] = i
		}
		sort.Slice(order, func(a, b int) bool { return xs[order[a]][f] < xs[order[b]][f] })

		leftCounts := make([]float64, t.classes)
		rightCounts := make([]float64, t.classes)
		copy(rightCounts, counts)
		nLeft := 0.0
		for k := 0; k < len(order)-1; k++ {
			y := ys[order[k]]
			leftCounts[y]++
			rightCounts[y]--
			nLeft++
			a, b := xs[order[k]][f], xs[order[k+1]][f]
			// Exact comparison: duplicate detection in a sorted scan wants bit
			// equality, not a tolerance.
			if a == b {
				continue
			}
			g := (nLeft*gini(leftCounts, nLeft) + (total-nLeft)*gini(rightCounts, total-nLeft)) / total
			if g < bestGini {
				bestGini = g
				bestFeature = f
				bestThreshold = (a + b) / 2
			}
		}
	}
	if bestFeature < 0 {
		return 0, 0, false
	}
	return bestFeature, bestThreshold, true
}

func gini(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

// featureSubset returns all features, or a random subset of size m.
func featureSubset(rng *rand.Rand, dim, m int) []int {
	all := make([]int, dim)
	for i := range all {
		all[i] = i
	}
	if m <= 0 || m >= dim || rng == nil {
		return all
	}
	rng.Shuffle(dim, func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:m]
}

// RegressionTree is a CART regressor (squared-error criterion) used as the
// weak learner inside gradient boosting.
type RegressionTree struct {
	MaxDepth   int
	MinSamples int

	root *treeNode
}

// NewRegressionTree returns a regression tree with the given growth limits.
func NewRegressionTree(maxDepth, minSamples int) *RegressionTree {
	return &RegressionTree{MaxDepth: maxDepth, MinSamples: minSamples}
}

// Fit grows the tree to predict targets from xs.
func (t *RegressionTree) Fit(xs [][]float64, targets []float64) {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(xs, targets, idx, 0)
}

// Predict returns the leaf mean for x.
func (t *RegressionTree) Predict(x []float64) float64 {
	return t.root.route(x).value
}

// AdjustLeaves replaces every leaf's value with update(samples) where
// samples are the training indices routed to that leaf. Gradient boosting
// uses this for the Newton leaf step of multiclass log-loss boosting
// (Friedman 2001): the tree's structure is grown on raw residuals, then its
// leaf values are re-estimated with second-order information.
func (t *RegressionTree) AdjustLeaves(xs [][]float64, update func(samples []int) float64) {
	leafSamples := make(map[*treeNode][]int)
	for i, x := range xs {
		leaf := t.root.route(x)
		leafSamples[leaf] = append(leafSamples[leaf], i)
	}
	for leaf, samples := range leafSamples {
		leaf.value = update(samples)
	}
}

func (t *RegressionTree) grow(xs [][]float64, targets []float64, idx []int, depth int) *treeNode {
	sum := 0.0
	for _, i := range idx {
		sum += targets[i]
	}
	mean := sum / float64(len(idx))
	node := &treeNode{value: mean}
	if depth >= t.MaxDepth || len(idx) < t.MinSamples {
		return node
	}
	feature, threshold, ok := bestVarianceSplit(xs, targets, idx)
	if !ok {
		return node
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if xs[i][feature] <= threshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return node
	}
	node.feature = feature
	node.threshold = threshold
	node.left = t.grow(xs, targets, leftIdx, depth+1)
	node.right = t.grow(xs, targets, rightIdx, depth+1)
	return node
}

// bestVarianceSplit finds the split minimizing the summed squared error of
// the two children (equivalently maximizing variance reduction).
func bestVarianceSplit(xs [][]float64, targets []float64, idx []int) (int, float64, bool) {
	dim := len(xs[0])
	bestScore := math.Inf(1)
	bestFeature, bestThreshold := -1, 0.0

	order := make([]int, len(idx))
	for f := 0; f < dim; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return xs[order[a]][f] < xs[order[b]][f] })

		totalSum, totalSq := 0.0, 0.0
		for _, i := range idx {
			totalSum += targets[i]
			totalSq += targets[i] * targets[i]
		}
		leftSum, leftSq, nLeft := 0.0, 0.0, 0.0
		total := float64(len(idx))
		for k := 0; k < len(order)-1; k++ {
			y := targets[order[k]]
			leftSum += y
			leftSq += y * y
			nLeft++
			a, b := xs[order[k]][f], xs[order[k+1]][f]
			// Exact comparison: duplicate detection in a sorted scan wants bit
			// equality, not a tolerance.
			if a == b {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			nRight := total - nLeft
			sse := (leftSq - leftSum*leftSum/nLeft) + (rightSq - rightSum*rightSum/nRight)
			if sse < bestScore {
				bestScore = sse
				bestFeature = f
				bestThreshold = (a + b) / 2
			}
		}
	}
	if bestFeature < 0 {
		return 0, 0, false
	}
	return bestFeature, bestThreshold, true
}
