// Command magic-server runs MAGIC as the cloud classification service
// envisioned in the paper's conclusion (Section VII): clients upload
// labeled samples, trigger asynchronous training jobs, and classify
// unknown disassembly over HTTP. See internal/service for the endpoint
// contract.
//
// Usage:
//
//	magic-server -addr :8080 -families Ramnit,Lollipop,...   # empty service
//	magic-server -addr :8080 -model magic-model.json -families ...
//	magic-server -demo                                       # preloaded demo
//	magic-server -demo -state-dir ./state                    # durable demo
//	magic-server -demo -pprof                                # + /debug/pprof
//
// Demo mode seeds the corpus with a small synthetic MSKCFG-style corpus and
// trains an initial model before serving, as an ordinary full training job
// (skipped when -state-dir already holds a model checkpoint from a previous
// run).
//
// With -state-dir the server is crash-safe: every accepted sample is
// appended as a checksummed binary frame to the open corpus segment and
// fsynced, the open segment is sealed (its offset index committed) once it
// passes -compact-bytes and the next one opened, the model is checkpointed
// atomically when a training job succeeds, and every segment is replayed
// on startup so a restart resumes serving where the previous process
// stopped. The server holds no decoded sample: training reads each one back
// from its segment file. A state dir holding the JSONL corpus.wal of an
// earlier version is refused. The directory is held under an exclusive lock; a second
// server pointed at it exits with status 2. On SIGINT or
// SIGTERM the server drains in-flight requests (http.Server.Shutdown),
// cancels any running training job cooperatively, writes a final model
// checkpoint, and exits cleanly.
//
// Prometheus metrics (request counters, latency histograms, training and
// training-job telemetry, pipeline stage timers — see DESIGN.md
// "Observability") are always served at GET /metrics. The -pprof flag
// additionally mounts the net/http/pprof profiling endpoints under
// /debug/pprof/; it is opt-in because profiling handlers should not be
// exposed on an untrusted network.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/malgen"
	"repro/internal/service"
)

// shutdownTimeout bounds how long draining in-flight requests may take
// once a termination signal arrives.
const shutdownTimeout = 15 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "magic-server:", err)
		// A locked state directory means another live server owns it;
		// exit 2 so supervisors can distinguish the contention from
		// ordinary startup failures instead of crash-looping over a lock.
		if errors.Is(err, service.ErrStateDirLocked) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("magic-server", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	familiesFlag := fs.String("families", "", "comma-separated family universe")
	modelPath := fs.String("model", "", "preload a trained model")
	stateDir := fs.String("state-dir", "", "durable state directory (corpus segments + model checkpoint); empty = in-memory only")
	compactBytes := fs.Int64("compact-bytes", 4<<20, "size at which the open corpus segment is sealed (0 never seals)")
	demo := fs.Bool("demo", false, "seed with a synthetic corpus and train before serving")
	demoSamples := fs.Int("demo-samples", 150, "demo corpus size")
	epochs := fs.Int("epochs", 12, "default training epochs")
	conv := fs.String("conv", "", "graph-convolution backend for server-side training: "+strings.Join(core.ConvBackendNames(), ", ")+" (empty = gcn; preloaded checkpoints keep their own backend)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in)")
	workers := fs.Int("workers", 0, "inference and training worker count (0 = GOMAXPROCS)")
	batchMax := fs.Int("batch-max", service.DefaultBatchMaxSize, "max samples coalesced into one prediction batch")
	batchWait := fs.Duration("batch-wait", service.DefaultBatchMaxWait, "max time a prediction waits for batch companions (0 disables the window)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var families []string
	if *familiesFlag != "" {
		families = strings.Split(*familiesFlag, ",")
	} else if *demo {
		families = malgen.MSKCFGFamilies()
	} else {
		return fmt.Errorf("need -families or -demo")
	}

	cfg := core.DefaultConfig(len(families), acfg.NumAttributes)
	cfg.Epochs = *epochs
	cfg.Conv = strings.ToLower(*conv)
	if err := cfg.Validate(); err != nil {
		return err
	}
	srv, err := service.New(families, cfg)
	if err != nil {
		return err
	}
	if err := srv.SetParallelism(*workers); err != nil {
		return err
	}
	srv.SetBatching(*batchMax, *batchWait)

	haveModel := false
	if *stateDir != "" {
		st, err := service.OpenStore(*stateDir)
		if err != nil {
			return err
		}
		replayed, loaded, err := srv.AttachStore(st)
		if err != nil {
			return err
		}
		haveModel = loaded
		log.Printf("state: %s replayed %d corpus samples, model checkpoint: %v", *stateDir, replayed, loaded)
		srv.EnableCompaction(*compactBytes, log.Printf)
	}

	if *modelPath != "" {
		m, err := core.LoadFile(*modelPath)
		if err != nil {
			return err
		}
		if err := srv.LoadModel(m); err != nil {
			return err
		}
		haveModel = true
		log.Printf("loaded model %s (%d parameters)", *modelPath, m.NumParameters())
	}

	if *demo && !haveModel {
		if err := seedDemo(srv, *demoSamples, *workers); err != nil {
			return err
		}
	} else if *demo {
		log.Printf("demo: model already present, skipping seed training")
	}

	handler := srv.Handler()
	if *pprofFlag {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	log.Printf("MAGIC service listening on %s (%d families), metrics at /metrics", *addr, len(families))

	select {
	case err := <-serveErr:
		// The listener died on its own; still quiesce state so an
		// attached store is closed with a final checkpoint.
		if closeErr := srv.Close(); closeErr != nil && err == nil {
			return closeErr
		}
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	log.Printf("shutdown: draining in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(drainCtx)
	if errors.Is(shutdownErr, context.DeadlineExceeded) {
		log.Printf("shutdown: drain timed out; closing remaining connections")
		shutdownErr = nil
	}
	log.Printf("shutdown: cancelling training and writing final checkpoint")
	if err := srv.Close(); err != nil {
		return err
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	log.Printf("shutdown: clean exit")
	return nil
}

// seedDemo imports a synthetic corpus into the service (persisted through
// the attached store, when any) and trains the initial model as a full
// training job, so the service can classify as soon as it listens. The job
// is the one POST /v1/train runs: it checkpoints the model, sets the
// continual watermark, and stays in the job history and /metrics.
func seedDemo(srv *service.Server, samples, workers int) error {
	log.Printf("demo: generating %d synthetic samples", samples)
	corpus, err := malgen.MSKCFG(malgen.Options{TotalSamples: samples, Seed: 1, Workers: workers})
	if err != nil {
		return err
	}
	if err := srv.ImportCorpus(corpus); err != nil {
		return err
	}
	start := time.Now()
	st, err := srv.Train(service.TrainModeFull, 0, 0)
	if err != nil {
		return err
	}
	log.Printf("demo: job %s trained in %v: %d epochs over %d samples, train loss %.4f acc %.3f",
		st.Job, time.Since(start).Round(time.Millisecond),
		st.Result.Epochs, st.Result.Samples, st.TrainLoss, st.TrainAcc)
	return nil
}
