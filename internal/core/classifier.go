package core

import (
	"fmt"

	"repro/internal/dataset"
)

// Classifier adapts the DGCNN model to the generic Fit/Predict contract
// used by the cross-validation harness (it satisfies eval.Classifier
// structurally). ValFraction > 0 carves a stratified validation split out
// of each training set for the plateau schedule and best-epoch selection.
type Classifier struct {
	Cfg         Config
	Opts        TrainOptions
	ValFraction float64

	model *Model
}

// Fit trains a fresh model on the given dataset.
func (c *Classifier) Fit(train *dataset.Dataset) error {
	var val dataset.SampleSource // nil, not a nil *Dataset: Train tests it against nil
	fitSet := train
	if c.ValFraction > 0 {
		tr, v, err := train.TrainValSplit(c.ValFraction, c.Cfg.Seed+17)
		if err != nil {
			return fmt.Errorf("core: classifier fit: %w", err)
		}
		fitSet, val = tr, v
	}
	m, err := NewModel(c.Cfg, fitSet.Sizes())
	if err != nil {
		return fmt.Errorf("core: classifier fit: %w", err)
	}
	if _, err := Train(m.Weights, fitSet, val, c.Opts); err != nil {
		return fmt.Errorf("core: classifier fit: %w", err)
	}
	c.model = m
	return nil
}

// Predict returns the class-probability vector for one sample. It panics
// when called before Fit (programming error).
func (c *Classifier) Predict(s *dataset.Sample) []float64 {
	if c.model == nil {
		panic("core: Classifier.Predict before Fit")
	}
	return c.model.Predict(s.ACFG)
}
