package main

import (
	"bytes"
	"strings"
	"testing"
)

// quick is the smallest run that still cross-validates every family.
var quick = []string{"-samples", "60", "-epochs", "1", "-folds", "2", "-quiet"}

func runBench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(append(args, quick...), &out, &errb)
	return code, out.String(), errb.String()
}

// TestFig9PrintsTheFigure: fig9 draws table3's run as per-family score bars
// and the summed confusion matrix under the corpus's family names, not a
// second copy of Table III.
func TestFig9PrintsTheFigure(t *testing.T) {
	code, fig, stderr := runBench(t, "-exp", "fig9")
	if code != 0 {
		t.Fatalf("fig9 exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"Figure 9", " P ", " R ", " F ", "true\\pred", "Ramnit"} {
		if !strings.Contains(fig, want) {
			t.Errorf("fig9 output lacks %q:\n%s", want, fig)
		}
	}
	code, table, stderr := runBench(t, "-exp", "table3")
	if code != 0 {
		t.Fatalf("table3 exit %d, stderr %q", code, stderr)
	}
	if strip(fig) == strip(table) {
		t.Fatalf("fig9 prints the same as table3:\n%s", fig)
	}
}

// strip drops the run's "[id completed in …]" footer, whose timing differs
// between any two runs.
func strip(s string) string {
	if i := strings.LastIndex(s, "["); i >= 0 {
		return s[:i]
	}
	return s
}

// TestRunExitStatus: an unknown -exp or flag is a usage error (2) that runs
// nothing; an experiment that fails exits 1.
func TestRunExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown experiment", []string{"-exp", "fig99"}, 2, `unknown experiment "fig99"`},
		{"unknown flag", []string{"-nope"}, 2, "flag provided but not defined"},
		{"failed experiment", []string{"-exp", "table3", "-folds", "1"}, 1, "magic-bench: table3:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(append(tc.args, "-quiet"), &out, &errb); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", errb.String(), tc.stderr)
			}
			if out.Len() != 0 {
				t.Errorf("stdout %q, want empty", out.String())
			}
		})
	}
}
