package eval

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// Classifier is anything that can be fitted on a labeled dataset and then
// produce a class-probability vector per sample. Both MAGIC and every
// baseline satisfy it, so one cross-validation harness serves the whole
// evaluation section.
type Classifier interface {
	Fit(train *dataset.Dataset) error
	Predict(s *dataset.Sample) []float64
}

// CVResult bundles the per-fold metrics and their mean.
type CVResult struct {
	Folds []*Metrics
	Mean  *Metrics
}

// StdAccuracy returns the standard deviation of accuracy across folds (the
// paper reports per-fold score variations below 0.004 on MSKCFG).
func (r *CVResult) StdAccuracy() float64 {
	if len(r.Folds) < 2 {
		return 0
	}
	mean := 0.0
	for _, f := range r.Folds {
		mean += f.Accuracy
	}
	mean /= float64(len(r.Folds))
	varSum := 0.0
	for _, f := range r.Folds {
		d := f.Accuracy - mean
		varSum += d * d
	}
	return math.Sqrt(varSum / float64(len(r.Folds)))
}

// CrossValidate runs stratified k-fold cross-validation (the paper uses
// k = 5): for every fold, factory builds a fresh randomly initialized
// classifier which is fitted on the training split and scored on the
// held-out split, so the training process never sees its test samples.
func CrossValidate(d *dataset.Dataset, k int, seed int64, factory func(fold int) (Classifier, error)) (*CVResult, error) {
	folds, err := d.StratifiedKFold(k, seed)
	if err != nil {
		return nil, err
	}
	res := &CVResult{}
	for fi, fold := range folds {
		clf, err := factory(fi)
		if err != nil {
			return nil, fmt.Errorf("eval: fold %d: build classifier: %w", fi, err)
		}
		train := d.Subset(fold.Train)
		val := d.Subset(fold.Val)
		if err := clf.Fit(train); err != nil {
			return nil, fmt.Errorf("eval: fold %d: fit: %w", fi, err)
		}
		m, err := Score(clf, val, d.Families)
		if err != nil {
			return nil, fmt.Errorf("eval: fold %d: score: %w", fi, err)
		}
		res.Folds = append(res.Folds, m)
	}
	res.Mean = Average(res.Folds)
	return res, nil
}

// Score evaluates a fitted classifier on a dataset.
func Score(clf Classifier, d *dataset.Dataset, classNames []string) (*Metrics, error) {
	labels := make([]int, d.Len())
	preds := make([]int, d.Len())
	probs := make([][]float64, d.Len())
	for i, s := range d.Samples {
		labels[i] = s.Label
		p := clf.Predict(s)
		probs[i] = p
		preds[i] = nn.ArgMax(p)
	}
	return Compute(classNames, labels, preds, probs)
}
