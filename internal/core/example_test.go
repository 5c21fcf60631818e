package core_test

import (
	"fmt"
	"log"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/malgen"
)

// Example trains the DGCNN on a small synthetic corpus and classifies a
// held-out sample — the library's minimal end-to-end flow.
func Example() {
	corpus, err := malgen.MSKCFG(malgen.Options{TotalSamples: 60, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := corpus.TrainValSplit(0.2, 3)
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig(corpus.NumClasses(), acfg.NumAttributes)
	cfg.Epochs = 2 // demo-sized; raise for real training
	model, err := core.NewModel(cfg, train.Sizes())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := core.Train(model.Weights, train, nil, core.TrainOptions{}); err != nil {
		log.Fatal(err)
	}

	probs := model.Predict(test.Samples[0].ACFG)
	fmt.Println("families:", len(probs))
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	fmt.Printf("probability mass: %.2f\n", sum)
	// Output:
	// families: 9
	// probability mass: 1.00
}
