package dataset

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/acfg"
	"repro/internal/obs"
)

// Source is one disassembly listing awaiting ACFG extraction.
type Source struct {
	// Name identifies the sample (file name, synthetic id, …).
	Name string
	// Label is the sample's class index.
	Label int
	// ASM is the IDA-style disassembly text.
	ASM string
}

// ExtractACFGs runs the front half of the MAGIC pipeline — asm parse →
// two-pass CFG build → Table I attribute extraction — over every source,
// fanning the per-sample work across a bounded pool of workers (the paper's
// multi-threaded feature extraction). Output order always matches input
// order and the result is identical for every worker count; on failure the
// error of the lowest-indexed failing source is returned. workers < 2 runs
// sequentially.
func ExtractACFGs(sources []Source, workers int) ([]*Sample, error) {
	wall := obs.StartTimer()
	if workers < 1 {
		workers = 1
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	samples := make([]*Sample, len(sources))
	errs := make([]error, len(sources))
	extractOne := func(i int) {
		src := sources[i]
		a, err := acfg.FromASM(src.ASM)
		if err != nil {
			errs[i] = fmt.Errorf("dataset: extract %s: %w", src.Name, err)
			return
		}
		samples[i] = &Sample{Name: src.Name, Label: src.Label, ACFG: a}
	}

	var busy obs.BusyMeter
	if workers <= 1 {
		done := busy.Track()
		for i := range sources {
			extractOne(i)
		}
		done()
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer busy.Track()()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(sources) {
						return
					}
					extractOne(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	obs.ObserveParallelBatch(obs.PhaseExtract, workers, len(sources),
		wall.Elapsed(), busy.Total())
	return samples, nil
}
