// Command magic-lint runs the repository's static-analysis suite
// (internal/lint): compiler-grade enforcement of the determinism,
// metric-naming, error-handling, replica-aliasing and float-comparison
// invariants that the MAGIC reproduction's tests assume. Every rule runs on
// one package at a time.
//
// Usage:
//
//	go run ./cmd/magic-lint ./...
//	go run ./cmd/magic-lint -json ./internal/core
//	go run ./cmd/magic-lint -rules
//
// Patterns follow the go tool (dir, dir/...); with none given, ./... is
// linted. Findings print as file:line:col: [rule] message, or as a JSON
// report with -json. Suppress an individual finding with a justified
// directive on or directly above the flagged line:
//
//	//lint:ignore <rule> <reason>
//
// Exit status: 0 clean, 1 findings, 2 load or usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: it lints the packages named by
// args and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("magic-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON report")
	rules := fs.Bool("rules", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: magic-lint [-json] [-rules] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *rules {
		for _, a := range lint.Suite() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	res, err := lint.Load("", fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "magic-lint:", err)
		return 2
	}
	findings := lint.Run(res, lint.Suite())

	if *jsonOut {
		if err := lint.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "magic-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) == 0 {
		return 0
	}
	if !*jsonOut {
		fmt.Fprintf(stderr, "magic-lint: %d finding(s) in %d package(s)\n", len(findings), len(res.Units))
	}
	return 1
}
