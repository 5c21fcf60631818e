package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/malgen"
)

// RobustnessRow reports holdout accuracy at one obfuscation intensity.
type RobustnessRow struct {
	Intensity float64
	Accuracy  float64
	// MeanGrowth is the mean instruction-count inflation of the
	// obfuscated test samples relative to their clean versions.
	MeanGrowth float64
}

// ObfuscationRobustness is an extension experiment motivated by the paper's
// Section V-A remark that packing and obfuscation degrade the disassembly
// MAGIC consumes: a model is trained on clean MSKCFG-style samples, and a
// held-out test set is re-extracted after metamorphic junk insertion at
// increasing intensities.
//
// Measured finding: the clean-trained classifier degrades *sharply*, not
// gracefully — junk insertion preserves the CFG shape but inflates the
// Table I content counters (mov/nop/test filler) far outside the training
// distribution. ObfuscationRobustnessAugmented shows the standard fix.
func ObfuscationRobustness(o Options, intensities []float64) ([]RobustnessRow, error) {
	return obfuscationRobustness(o, intensities, false)
}

// ObfuscationRobustnessAugmented repeats the experiment with
// obfuscation-aware training: every training sample is additionally seen as
// one metamorphic variant at a random intensity, which restores most of the
// lost accuracy.
func ObfuscationRobustnessAugmented(o Options, intensities []float64) ([]RobustnessRow, error) {
	return obfuscationRobustness(o, intensities, true)
}

func obfuscationRobustness(o Options, intensities []float64, augment bool) ([]RobustnessRow, error) {
	o = o.withDefaults(240)
	if len(intensities) == 0 {
		intensities = []float64{0, 0.25, 0.5, 1, 2}
	}
	corpus, texts, err := malgen.MSKCFGTexts(o.corpusOpts())
	if err != nil {
		return nil, err
	}

	// Stratified holdout: indices per class.
	trainIdx, testIdx := stratifiedHoldout(corpus, 0.25, o.Seed)
	train := corpus.Subset(trainIdx)
	if augment {
		augRng := rand.New(rand.NewSource(o.Seed + 7))
		augmented := dataset.New(corpus.Families)
		for _, s := range train.Samples {
			augmented.Add(s)
		}
		for _, idx := range trainIdx {
			s := corpus.Samples[idx]
			intensity := augRng.Float64() * 1.5
			obfText, err := malgen.ObfuscateProgram(augRng, texts[idx], intensity)
			if err != nil {
				return nil, fmt.Errorf("experiments: augment %s: %w", s.Name, err)
			}
			a, err := acfg.FromASM(obfText)
			if err != nil {
				return nil, fmt.Errorf("experiments: augment reparse %s: %w", s.Name, err)
			}
			augmented.Add(&dataset.Sample{Name: s.Name + "-obf", Label: s.Label, ACFG: a})
		}
		train = augmented
	}

	cfgModel := mskConfig(o, corpus.NumClasses())
	m, err := core.NewModel(cfgModel, train.Sizes())
	if err != nil {
		return nil, err
	}
	o.logf("training model on %d samples (augmented=%v)", train.Len(), augment)
	if _, err := core.Train(m, train, nil, o.trainOpts()); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.Seed + 99))
	var rows []RobustnessRow
	for _, intensity := range intensities {
		correct := 0
		growth := 0.0
		for _, idx := range testIdx {
			clean := corpus.Samples[idx]
			obfText, err := malgen.ObfuscateProgram(rng, texts[idx], intensity)
			if err != nil {
				return nil, fmt.Errorf("experiments: obfuscate %s: %w", clean.Name, err)
			}
			a, err := acfg.FromASM(obfText)
			if err != nil {
				return nil, fmt.Errorf("experiments: reparse %s: %w", clean.Name, err)
			}
			if m.PredictClass(a) == clean.Label {
				correct++
			}
			cleanTotal := totalInstructions(clean.ACFG)
			if cleanTotal > 0 {
				growth += totalInstructions(a) / cleanTotal
			}
		}
		n := float64(len(testIdx))
		rows = append(rows, RobustnessRow{
			Intensity:  intensity,
			Accuracy:   float64(correct) / n,
			MeanGrowth: growth / n,
		})
		o.logf("intensity %.2f: accuracy %.3f", intensity, float64(correct)/n)
	}
	return rows, nil
}

// stratifiedHoldout returns train/test index slices with testFraction of
// each class held out (at least one).
func stratifiedHoldout(d *dataset.Dataset, testFraction float64, seed int64) (trainIdx, testIdx []int) {
	rng := rand.New(rand.NewSource(seed + 5))
	byClass := make(map[int][]int)
	for i, s := range d.Samples {
		byClass[s.Label] = append(byClass[s.Label], i)
	}
	for c := 0; c < d.NumClasses(); c++ {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nTest := int(float64(len(idx)) * testFraction)
		if nTest == 0 && len(idx) > 1 {
			nTest = 1
		}
		testIdx = append(testIdx, idx[:nTest]...)
		trainIdx = append(trainIdx, idx[nTest:]...)
	}
	return trainIdx, testIdx
}

func totalInstructions(a *acfg.ACFG) float64 {
	total := 0.0
	for i := 0; i < a.Attrs.Rows; i++ {
		total += a.Attrs.At(i, acfg.AttrTotalInstructions)
	}
	return total
}

// FormatRobustness renders the degradation series.
func FormatRobustness(rows []RobustnessRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %10s %12s\n", "Intensity", "Accuracy", "Code Growth")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10.2f %9.2f%% %11.2fx\n", r.Intensity, 100*r.Accuracy, r.MeanGrowth)
	}
	return sb.String()
}
