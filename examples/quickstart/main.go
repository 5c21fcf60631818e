// Quickstart: the smallest end-to-end MAGIC run. It generates a tiny
// synthetic malware corpus, trains a DGCNN classifier, evaluates it on a
// holdout split and classifies one unseen sample — about a minute on a
// laptop core.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/malgen"
)

func main() {
	// 1. Generate a small labeled corpus (nine MSKCFG-style families).
	corpus, err := malgen.MSKCFG(malgen.Options{TotalSamples: 150, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d samples across %d families\n", corpus.Len(), corpus.NumClasses())

	// 2. Hold out 20% for testing.
	train, test, err := corpus.TrainValSplit(0.2, 7)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Build and train the DGCNN with the default (adaptive-pooling)
	// architecture.
	cfg := core.DefaultConfig(corpus.NumClasses(), acfg.NumAttributes)
	cfg.Epochs = 12
	model, err := core.NewModel(cfg, train.Sizes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training", model)
	if _, err := core.Train(model.Weights, train, nil, core.TrainOptions{}); err != nil {
		log.Fatal(err)
	}

	// 4. Evaluate on the holdout.
	correct := 0
	for _, s := range test.Samples {
		if model.PredictClass(s.ACFG) == s.Label {
			correct++
		}
	}
	fmt.Printf("holdout accuracy: %.1f%% (%d/%d)\n",
		100*float64(correct)/float64(test.Len()), correct, test.Len())

	// 5. Classify one unseen sample.
	sample := test.Samples[0]
	probs := model.Predict(sample.ACFG)
	best := model.PredictClass(sample.ACFG)
	fmt.Printf("sample %s (%d basic blocks): predicted %s (%.1f%%), true %s\n",
		sample.Name, sample.ACFG.NumVertices(),
		corpus.Families[best], 100*probs[best], corpus.Families[sample.Label])
}
