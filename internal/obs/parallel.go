package obs

import "time"

// Canonical phase labels for the data-parallel batch engine (internal/core):
// training batches, validation sweeps, and batched/pooled inference.
const (
	PhaseTrain    = "train"
	PhaseValidate = "validate"
	PhasePredict  = "predict"
	PhaseExtract  = "extract"
)

// Data-parallel execution metrics live on the Default registry (like the
// pipeline stage timers) so the batch engine inside internal/core needs no
// wiring; magic-server's /metrics picks them up automatically.
//
//	utilization = rate(magic_parallel_worker_busy_seconds_total[1m])
//	            / (magic_parallel_workers * rate(magic_parallel_batch_duration_seconds_sum[1m]))
var (
	parallelBatchDuration = Default().HistogramVec("magic_parallel_batch_duration_seconds",
		"Wall-clock cost of one data-parallel batch, by execution phase.",
		DefBuckets, "phase")
	parallelBatchTotal = Default().CounterVec("magic_parallel_batches_total",
		"Batches executed by the data-parallel engine, by phase.", "phase")
	parallelSamplesTotal = Default().CounterVec("magic_parallel_samples_total",
		"Samples processed by the data-parallel engine, by phase.", "phase")
	parallelWorkerBusy = Default().CounterVec("magic_parallel_worker_busy_seconds_total",
		"Cumulative time workers spent executing shards (summed across workers), by phase.", "phase")
	parallelWorkers = Default().GaugeVec("magic_parallel_workers",
		"Worker count most recently used by the data-parallel engine, by phase.", "phase")

	workspaceCheckouts = Default().Gauge("magic_workspace_checkouts_total",
		"Cumulative scratch-buffer checkouts across the batch engine's replica workspaces.")
	workspaceBytes = Default().Gauge("magic_workspace_bytes",
		"Slab bytes held by the batch engine's replica workspaces: each replica's is the scratch of the largest graph it has run.")
)

// parallelPhase holds one phase's pre-resolved metric children. Vec.With
// builds a label key per call; resolving the four known phases once keeps
// the per-batch telemetry on the training hot path allocation-free.
type parallelPhase struct {
	duration *Histogram
	batches  *Counter
	samples  *Counter
	busy     *Counter
	workers  *Gauge
}

func resolvePhase(phase string) parallelPhase {
	return parallelPhase{
		duration: parallelBatchDuration.With(phase),
		batches:  parallelBatchTotal.With(phase),
		samples:  parallelSamplesTotal.With(phase),
		busy:     parallelWorkerBusy.With(phase),
		workers:  parallelWorkers.With(phase),
	}
}

var (
	phaseTrainMetrics    = resolvePhase(PhaseTrain)
	phaseValidateMetrics = resolvePhase(PhaseValidate)
	phasePredictMetrics  = resolvePhase(PhasePredict)
	phaseExtractMetrics  = resolvePhase(PhaseExtract)
)

// ObserveParallelBatch records one completed data-parallel batch: its phase,
// the worker count it ran with, the number of samples it covered, its
// wall-clock duration, and the summed busy time of all workers. Worker
// utilization is derivable as busy / (workers × wall).
func ObserveParallelBatch(phase string, workers, samples int, wall, busy time.Duration) {
	var pm parallelPhase
	switch phase {
	case PhaseTrain:
		pm = phaseTrainMetrics
	case PhaseValidate:
		pm = phaseValidateMetrics
	case PhasePredict:
		pm = phasePredictMetrics
	case PhaseExtract:
		pm = phaseExtractMetrics
	default:
		pm = resolvePhase(phase)
	}
	pm.duration.Observe(wall.Seconds())
	pm.batches.Inc()
	pm.samples.Add(float64(samples))
	pm.busy.Add(busy.Seconds())
	pm.workers.Set(float64(workers))
}

// ObserveWorkspace publishes the batch engine's summed replica workspace
// footprint: cumulative checkouts and the slab bytes currently held.
func ObserveWorkspace(checkouts, bytes uint64) {
	workspaceCheckouts.Set(float64(checkouts))
	workspaceBytes.Set(float64(bytes))
}
