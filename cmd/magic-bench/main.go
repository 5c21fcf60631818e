// Command magic-bench regenerates the paper's evaluation tables and
// figures on the synthetic corpora (see DESIGN.md for the per-experiment
// index). Each experiment prints the same rows/series the paper reports.
//
// Usage:
//
//	magic-bench -exp table3                  # one experiment
//	magic-bench -exp all -samples 360 -epochs 20 -folds 5
//
// Experiments: fig7, fig8, table2, table3, table4, table5, fig9 and fig10
// (table3's and table5's runs drawn as per-family score bars plus the
// confusion matrix), fig11, overhead, ablation-heads, ablation-attrs,
// convsweep, robustness, all. Exit status: 0 when every experiment
// completed, 1 when one failed, 2 for a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/malgen"
)

// errUnknownExperiment is runOne's answer to an -exp value it does not
// know; it returns it before running anything.
var errUnknownExperiment = errors.New("unknown experiment")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the selected experiments and returns the exit status: 0 when
// every experiment completed, 1 when one failed, 2 for a usage error such as
// an unknown -exp.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("magic-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (fig7, fig8, table2, table3, table4, table5, fig9, fig10, fig11, overhead, ablation-heads, ablation-attrs, convsweep, robustness, all)")
	samples := fs.Int("samples", 0, "corpus size (0 = per-experiment default)")
	epochs := fs.Int("epochs", 0, "training epochs (0 = default 20)")
	folds := fs.Int("folds", 0, "cross-validation folds (0 = default 5)")
	seed := fs.Int64("seed", 1, "random seed")
	full := fs.Bool("full", false, "table2: sweep the full 208-setting paper grid")
	quiet := fs.Bool("quiet", false, "suppress progress logs")
	workers := fs.Int("workers", 0, "data-parallel workers for generation and training (0 = GOMAXPROCS); results are identical at any value")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}

	ids := []string{strings.ToLower(*exp)}
	if ids[0] == "all" {
		// fig9 and fig10 are left out: they re-run table3's and table5's
		// cross-validation.
		ids = []string{"fig7", "fig8", "table3", "table4", "table5", "fig11", "table2", "overhead", "ablation-heads", "ablation-attrs", "convsweep", "robustness"}
	}

	opts := experiments.Options{Samples: *samples, Epochs: *epochs, Folds: *folds, Seed: *seed, Workers: *workers}
	if !*quiet {
		opts.Logf = func(format string, a ...any) {
			fmt.Fprintf(stderr, "  … "+format+"\n", a...)
		}
	}
	for _, id := range ids {
		start := time.Now()
		if err := runOne(stdout, id, opts, *full); errors.Is(err, errUnknownExperiment) {
			fmt.Fprintf(stderr, "magic-bench: unknown experiment %q\n", *exp)
			fs.Usage()
			return 2
		} else if err != nil {
			fmt.Fprintf(stderr, "magic-bench: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func runOne(w io.Writer, id string, opts experiments.Options, full bool) error {
	switch id {
	case "fig7":
		dist, err := experiments.Figure7(opts)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatDistribution("Figure 7: Malware Family Distribution in MSKCFG-style Dataset", dist))

	case "fig8":
		dist, err := experiments.Figure8(opts)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatDistribution("Figure 8: Class Distribution in YANCFG-style Dataset", dist))

	case "table3":
		cv, err := experiments.Table3(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table III: MAGIC cross-validation scores on the MSKCFG-style dataset")
		fmt.Fprint(w, cv.Mean.Table())
		fmt.Fprintf(w, "fold-accuracy std: %.4f\n", cv.StdAccuracy())

	case "fig9":
		cv, err := experiments.Table3(opts)
		if err != nil {
			return err
		}
		fmt.Fprint(w, cv.Mean.ScoresFigure("Figure 9: MAGIC per-family precision (P), recall (R) and F1 (F) on the MSKCFG-style dataset"))
		fmt.Fprintln(w, "Confusion matrix, summed over the validation folds:")
		fmt.Fprint(w, cv.Mean.ConfusionTable(malgen.MSKCFGFamilies()))

	case "table4":
		rows, err := experiments.Table4(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table IV: Cross-validation metric comparison on the MSKCFG-style dataset")
		fmt.Fprint(w, experiments.FormatTable4(rows))

	case "table5":
		cv, err := experiments.Table5(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table V: MAGIC cross-validation scores on the YANCFG-style dataset")
		fmt.Fprint(w, cv.Mean.Table())
		fmt.Fprintf(w, "fold-accuracy std: %.4f\n", cv.StdAccuracy())

	case "fig10":
		cv, err := experiments.Table5(opts)
		if err != nil {
			return err
		}
		fmt.Fprint(w, cv.Mean.ScoresFigure("Figure 10: MAGIC per-family precision (P), recall (R) and F1 (F) on the YANCFG-style dataset"))
		fmt.Fprintln(w, "Confusion matrix, summed over the validation folds:")
		fmt.Fprint(w, cv.Mean.ConfusionTable(malgen.YANCFGFamilies()))

	case "fig11":
		rows, magic, err := experiments.Figure11(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table V (from the same run): MAGIC cross-validation scores on the YANCFG-style dataset")
		fmt.Fprint(w, magic.Mean.Table())
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Figure 11: F1 comparison between MAGIC and ESVC on the YANCFG-style dataset")
		fmt.Fprint(w, experiments.FormatFigure11(rows))

	case "table2":
		res, err := experiments.Table2(opts, full)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table II: hyperparameter search (best models first)")
		fmt.Fprint(w, experiments.FormatTable2(res, 10))

	case "overhead":
		oh, err := experiments.MeasureOverhead(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Section V-E: execution overhead")
		fmt.Fprintf(w, "  ACFG construction:   %v per instance\n", oh.ACFGBuild.Round(time.Microsecond))
		fmt.Fprintf(w, "  training:            %v per instance per epoch\n", oh.TrainPerInstance.Round(time.Microsecond))
		fmt.Fprintf(w, "  prediction:          %v per instance\n", oh.PredPerInstance.Round(time.Microsecond))

	case "ablation-heads":
		rows, err := experiments.AblateHeads(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ablation: pooling/head variants on the MSKCFG-style dataset")
		fmt.Fprint(w, experiments.FormatAblation(rows))

	case "robustness":
		rows, err := experiments.ObfuscationRobustness(opts, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Extension: accuracy under metamorphic junk-insertion obfuscation of test samples")
		fmt.Fprintln(w, "(a) clean training")
		fmt.Fprint(w, experiments.FormatRobustness(rows))
		augRows, err := experiments.ObfuscationRobustnessAugmented(opts, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "(b) obfuscation-augmented training")
		fmt.Fprint(w, experiments.FormatRobustness(augRows))

	case "convsweep":
		rows, err := experiments.ConvBackendSweep(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Extension: graph-convolution backend comparison (identical folds per corpus)")
		fmt.Fprint(w, experiments.FormatConvSweep(rows))

	case "ablation-attrs":
		rows, err := experiments.AblateAttributes(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ablation: Table I attribute subsets on the MSKCFG-style dataset")
		fmt.Fprint(w, experiments.FormatAblation(rows))

	default:
		return errUnknownExperiment
	}
	return nil
}
