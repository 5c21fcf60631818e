// Command magic-lint runs the repository's static-analysis suite
// (internal/lint): compiler-grade enforcement of the determinism,
// metric-naming, error-handling, replica-aliasing, float-comparison,
// hot-path-allocation, kernel-aliasing and goroutine-hygiene invariants that
// the MAGIC reproduction's tests assume. The last three are interprocedural:
// they run on a whole-module call graph with per-function summaries
// propagated bottom-up through its SCCs.
//
// Usage:
//
//	go run ./cmd/magic-lint ./...
//	go run ./cmd/magic-lint -json ./internal/core
//	go run ./cmd/magic-lint -baseline findings.json ./...
//
// Patterns follow the go tool (dir, dir/...); with none given, ./... is
// linted. Findings print as file:line:col: [rule] message, or as a JSON
// report with -json. Suppress an individual finding with a justified
// directive on or directly above the flagged line:
//
//	//lint:ignore <rule> <reason>
//
// -baseline suppresses the exact findings recorded in a committed -json
// report, letting a new rule gate CI before its sweep lands; baseline
// entries that no longer fire are a hard error, so the file can only
// shrink (regenerate it to drop the fixed entries).
//
// Exit status: 0 clean, 1 findings, 2 load/usage errors or a stale
// baseline.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON report")
	rules := flag.Bool("rules", false, "list the analyzers and exit")
	baseline := flag.String("baseline", "", "suppress the exact findings recorded in this -json report; stale entries are an error")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: magic-lint [-json] [-rules] [-baseline findings.json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *rules {
		for _, a := range lint.Suite() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	res, err := lint.Load("", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "magic-lint:", err)
		os.Exit(2)
	}
	findings := lint.Run(res, lint.Suite())

	if *baseline != "" {
		base, err := lint.ReadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "magic-lint:", err)
			os.Exit(2)
		}
		kept, stale := lint.ApplyBaseline(findings, base)
		if len(stale) > 0 {
			for _, f := range stale {
				fmt.Fprintf(os.Stderr, "magic-lint: stale baseline entry (no longer fires): %v\n", f)
			}
			fmt.Fprintf(os.Stderr, "magic-lint: %d stale baseline entr%s in %s; regenerate it with -json\n",
				len(stale), map[bool]string{true: "y", false: "ies"}[len(stale) == 1], *baseline)
			os.Exit(2)
		}
		findings = kept
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "magic-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "magic-lint: %d finding(s) in %d package(s)\n", len(findings), len(res.Units))
		}
		os.Exit(1)
	}
}
