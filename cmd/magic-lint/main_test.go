package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/lint"
)

// golden is the directory of internal/lint's golden packages, relative to
// this package (patterns resolve against the working directory).
const golden = "../../internal/lint/testdata/"

// runLint runs the command in-process and returns its stdout, stderr and
// exit status.
func runLint(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestDriverExitCodes checks the contract the CI gate relies on: exit 1
// (with findings naming the rule) on every flagged golden package, exit 0
// on the clean ones, exit 2 on a package that fails to type-check, and a
// parseable -json report.
func TestDriverExitCodes(t *testing.T) {
	for _, a := range lint.Suite() {
		bad := golden + "src/" + a.Name + "_bad"
		out, errOut, code := runLint(bad)
		if code != 1 {
			t.Errorf("%s: exit = %d, want 1\n%s%s", bad, code, out, errOut)
		}
		if !strings.Contains(out, "["+a.Name+"]") {
			t.Errorf("%s: output does not mention rule %q:\n%s", bad, a.Name, out)
		}
		ok := golden + "src/" + a.Name + "_ok"
		if out, errOut, code := runLint(ok); code != 0 {
			t.Errorf("%s: exit = %d, want 0\n%s%s", ok, code, out, errOut)
		}
	}

	out, _, code := runLint("-json", golden+"src/floatcmp_bad")
	if code != 1 {
		t.Errorf("-json on flagged package: exit = %d, want 1", code)
	}
	var doc lint.Report
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not a Report: %v\n%s", err, out)
	}
	if doc.Count != 2 || len(doc.Findings) != 2 {
		t.Errorf("-json count = %d (%d findings), want 2", doc.Count, len(doc.Findings))
	}
	for _, f := range doc.Findings {
		if f.Rule != "floatcmp" || !strings.HasPrefix(f.File, "internal/lint/testdata/") {
			t.Errorf("unexpected JSON finding: %+v", f)
		}
	}

	// A package that fails type checking is a load error, not a panic.
	_, errOut, code := runLint(golden + "broken/badtypes")
	if code != 2 {
		t.Errorf("broken package: exit = %d, want 2\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "typecheck") {
		t.Errorf("broken package: error does not mention typecheck:\n%s", errOut)
	}

	// Flags outside -json and -rules are usage errors.
	if _, _, code := runLint("-baseline", "findings.json", golden+"src/floatcmp_ok"); code != 2 {
		t.Errorf("unknown flag: exit = %d, want 2", code)
	}
}

// TestRulesListsSuite pins -rules to the analyzer suite, one line each.
func TestRulesListsSuite(t *testing.T) {
	out, _, code := runLint("-rules")
	if code != 0 {
		t.Fatalf("-rules: exit = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	suite := lint.Suite()
	if len(lines) != len(suite) {
		t.Fatalf("-rules printed %d lines, want %d:\n%s", len(lines), len(suite), out)
	}
	for i, a := range suite {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != a.Name {
			t.Errorf("-rules line %d = %q, want rule %q", i, lines[i], a.Name)
		}
	}
}
