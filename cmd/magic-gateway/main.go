// Command magic-gateway fronts a fleet of magic-server backends with a
// single serving endpoint: consistent-hash load balancing for uploads and
// predictions, automatic failover when a backend dies, an
// ACFG-content-hash prediction cache, and fleet-wide /v1/models fan-out
// so blue/green promote and rollback hit every backend together. See
// internal/gateway and DESIGN.md's "Fleet serving" section.
//
// Usage:
//
//	magic-gateway -addr :8090 -backends http://localhost:8081,http://localhost:8082
//
// The gateway is stateless apart from its in-memory cache: it can be
// restarted freely, and because ring placement is derived from SHA-256
// the restarted process routes every key exactly as before.
//
// Exit status: 0 after a clean shutdown, 1 when serving fails (e.g. the
// address cannot be bound), 2 for a usage error such as a missing or
// invalid -backends list.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
)

// shutdownTimeout bounds how long draining in-flight requests may take
// once a termination signal arrives.
const shutdownTimeout = 15 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run serves until SIGINT or SIGTERM and returns the exit status. The
// gateway logs to stderr and writes nothing to stdout.
func run(args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("magic-gateway", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8090", "listen address")
	backendsFlag := fs.String("backends", "", "comma-separated magic-server base URLs (required)")
	cacheSize := fs.Int("cache-size", gateway.DefaultCacheSize, "prediction cache capacity (entries)")
	retries := fs.Int("retries", 0, "per-backend retry budget before failing over (0 = client default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "magic-gateway:", msg)
		fs.Usage()
		return 2
	}
	if *backendsFlag == "" {
		return usage("need -backends")
	}
	backends := strings.Split(*backendsFlag, ",")

	gw, err := gateway.New(gateway.Options{
		Backends:   backends,
		CacheSize:  *cacheSize,
		MaxRetries: *retries,
	})
	if err != nil {
		return usage(err.Error())
	}
	if err := serve(gw, *addr, len(backends), log.New(stderr, "", log.LstdFlags)); err != nil {
		fmt.Fprintln(stderr, "magic-gateway:", err)
		return 1
	}
	return 0
}

// serve runs the gateway on addr until a termination signal, then drains
// in-flight requests.
func serve(gw *gateway.Gateway, addr string, backends int, logger *log.Logger) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	logger.Printf("MAGIC gateway listening on %s over %d backends, metrics at /metrics", addr, backends)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	logger.Printf("shutdown: draining in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(drainCtx)
	if errors.Is(shutdownErr, context.DeadlineExceeded) {
		logger.Printf("shutdown: drain timed out; closing remaining connections")
		shutdownErr = nil
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	logger.Printf("shutdown: clean exit")
	return nil
}
