// mskcfg runs the paper's headline experiment end-to-end at example scale:
// synthesize an MSKCFG-style corpus of disassembly listings, push every
// sample through the real pipeline (parser → two-pass CFG builder → Table I
// ACFG extraction — that happens inside malgen.MSKCFG), run stratified
// cross-validation of the best Table II model and print the Table III
// per-family precision/recall/F1 table. It also demonstrates saving a
// trained model and reloading it for prediction.
//
//	go run ./examples/mskcfg
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/malgen"
)

func main() {
	corpus, err := malgen.MSKCFG(malgen.Options{TotalSamples: 220, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MSKCFG-style corpus: %d samples\n", corpus.Len())
	counts := corpus.CountByClass()
	for i, f := range corpus.Families {
		fmt.Printf("  %-16s %d\n", f, counts[i])
	}

	cfg := core.DefaultConfig(corpus.NumClasses(), acfg.NumAttributes)
	// The hyperparameter sweep at this corpus scale selects sort pooling
	// with the paper's WeightedVertices extension (see EXPERIMENTS.md).
	cfg.Pooling = core.SortPooling
	cfg.Head = core.WeightedVerticesHead
	cfg.PoolingRatio = 0.64
	cfg.Epochs = 12

	cv, err := eval.CrossValidate(corpus, 3, 1, func(f int) (eval.Classifier, error) {
		fmt.Printf("fold %d/3...\n", f+1)
		c := cfg
		c.Seed = int64(f + 1)
		return &core.Classifier{Cfg: c}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTable III-style cross-validation scores:")
	fmt.Print(cv.Mean.Table())

	// Train a final model on a train/val split, save it, reload it, and
	// classify one unseen sample — the deployment flow of Section IV-C.
	train, val, err := corpus.TrainValSplit(0.2, 3)
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.NewModel(cfg, train.Sizes())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := core.Train(model.Weights, train, val, core.TrainOptions{}); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "magic-mskcfg-model.json")
	if err := model.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	reloaded, err := core.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	s := val.Samples[0]
	probs := reloaded.Predict(s.ACFG)
	best := reloaded.PredictClass(s.ACFG)
	fmt.Printf("\nreloaded model (%s) classifies %s as %s (%.1f%%), true %s\n",
		path, s.Name, corpus.Families[best], 100*probs[best], corpus.Families[s.Label])
}
