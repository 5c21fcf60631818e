package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// loadTestdata loads every golden package under testdata/src in one shot.
func loadTestdata(t *testing.T) *Result {
	t.Helper()
	res, err := Load(".", "./testdata/src/...")
	if err != nil {
		t.Fatalf("Load testdata: %v", err)
	}
	if len(res.Units) == 0 {
		t.Fatal("Load testdata: no packages found")
	}
	return res
}

// goldenPkg extracts the golden package name from a finding's file path
// (internal/lint/testdata/src/<pkg>/<file>.go).
func goldenPkg(t *testing.T, file string) string {
	t.Helper()
	parts := strings.Split(file, "/")
	for i, p := range parts {
		if p == "src" && i+1 < len(parts) {
			return parts[i+1]
		}
	}
	t.Fatalf("finding outside testdata/src: %s", file)
	return ""
}

// TestGoldenPackages pins down, per golden package, exactly which rules
// fire and how often — at least one flagged and one clean case per rule,
// plus the suppression pair.
func TestGoldenPackages(t *testing.T) {
	res := loadTestdata(t)
	findings := Run(res, Suite())

	got := map[string]map[string]int{}
	for _, u := range res.Units {
		got[filepath.Base(u.Dir)] = map[string]int{}
	}
	for _, f := range findings {
		pkg := goldenPkg(t, f.File)
		got[pkg][f.Rule]++
	}

	want := map[string]map[string]int{
		"determinism_bad": {"determinism": 4},
		"determinism_ok":  {},
		"metricnames_bad": {"metricnames": 5},
		"metricnames_ok":  {},
		"errcheck_bad":    {"errcheck": 2},
		"errcheck_ok":     {},
		"replicacopy_bad": {"replicacopy": 4},
		"replicacopy_ok":  {},
		"floatcmp_bad":    {"floatcmp": 2},
		"floatcmp_ok":     {},
		// Loader edge-case packages: buildtags carries a //go:build ignore
		// file that must be filtered out, nestpkg hides a flagged package
		// under its own testdata dir that recursive walks must skip.
		"buildtags":   {},
		"nestpkg":     {},
		"suppressed":  {},
		"suppressbad": {"suppression": 1, "floatcmp": 1},
	}
	for pkg, wantRules := range want {
		gotRules, ok := got[pkg]
		if !ok {
			t.Errorf("golden package %s was not loaded", pkg)
			continue
		}
		if !reflect.DeepEqual(gotRules, wantRules) && !(len(gotRules) == 0 && len(wantRules) == 0) {
			t.Errorf("%s: findings per rule = %v, want %v", pkg, gotRules, wantRules)
		}
	}
	for pkg := range got {
		if _, ok := want[pkg]; !ok {
			t.Errorf("unexpected golden package %s (update the want table)", pkg)
		}
	}
}

// TestFindingsAreSorted asserts the runner's deterministic output order.
func TestFindingsAreSorted(t *testing.T) {
	res := loadTestdata(t)
	findings := Run(res, Suite())
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Fatalf("findings out of order: %v before %v", a, b)
		}
	}
}

// TestJSONReportShape locks the -json document shape: a findings array of
// {rule,file,line,col,message} plus a count.
func TestJSONReportShape(t *testing.T) {
	var buf bytes.Buffer
	findings := []Finding{{Rule: "floatcmp", File: "x/y.go", Line: 3, Col: 9, Message: "m"}}
	if err := WriteJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Findings []map[string]any `json:"findings"`
		Count    *int             `json:"count"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Count == nil || *doc.Count != 1 || len(doc.Findings) != 1 {
		t.Fatalf("want count=1 and one finding, got %s", buf.String())
	}
	for _, key := range []string{"rule", "file", "line", "col", "message"} {
		if _, ok := doc.Findings[0][key]; !ok {
			t.Errorf("finding object missing %q key: %s", key, buf.String())
		}
	}

	// The empty report must still carry an array, not null.
	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"findings": []`) {
		t.Errorf("empty report should render findings as []: %s", buf.String())
	}
}

// moduleRoot locates the repository root for the whole-module tests.
func moduleRoot(t testing.TB) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := findModule(wd)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// suppressionRowRe matches one row of DESIGN.md's "Suppression inventory"
// table: | `file` | `rule` | count |
var suppressionRowRe = regexp.MustCompile("^\\|\\s*`([^`]+)`\\s*\\|\\s*`([^`]+)`\\s*\\|\\s*(\\d+)\\s*\\|")

// documentedSuppressions parses the suppression-inventory table out of
// DESIGN.md, keyed "file<TAB>rule".
func documentedSuppressions(t *testing.T, root string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	doc := map[string]int{}
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") {
			in = strings.Contains(line, "Suppression inventory")
			continue
		}
		if !in {
			continue
		}
		m := suppressionRowRe.FindStringSubmatch(line)
		if m == nil || m[1] == "File" {
			continue
		}
		n, err := strconv.Atoi(m[3])
		if err != nil {
			t.Fatalf("bad count in DESIGN.md suppression row %q: %v", line, err)
		}
		doc[m[1]+"\t"+m[2]] = n
	}
	if len(doc) == 0 {
		t.Fatal("DESIGN.md has no parseable 'Suppression inventory' table")
	}
	return doc
}

// TestRepositoryLintClean is the self-clean meta-test: the tree must lint
// clean under the full five-rule suite, and the //lint:ignore directives
// present — file, rule, and count — must exactly match the DESIGN.md
// "Suppression inventory" table. Docs and code cannot drift apart.
func TestRepositoryLintClean(t *testing.T) {
	root := moduleRoot(t)
	res, err := Load(root)
	if err != nil {
		t.Fatalf("Load %s/...: %v", root, err)
	}
	findings := Run(res, Suite())
	for _, f := range findings {
		t.Errorf("repository not lint-clean: %v", f)
	}

	documented := documentedSuppressions(t, root)
	gotSup := map[string]int{}
	for _, u := range res.Units {
		if u.Testdata {
			continue // golden packages document their own suppressions
		}
		for _, file := range u.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := ignoreRe.FindStringSubmatch(strings.TrimSpace(c.Text))
					if m == nil {
						continue
					}
					p := res.Fset.Position(c.Pos())
					rel, _ := filepath.Rel(root, p.Filename)
					for _, rule := range strings.Split(m[1], ",") {
						gotSup[filepath.ToSlash(rel)+"\t"+rule]++
					}
				}
			}
		}
	}
	if !reflect.DeepEqual(gotSup, documented) {
		t.Errorf("suppressions in tree = %v, want exactly the DESIGN.md inventory %v", gotSup, documented)
	}
}

// TestLoaderBuildTags pins the build-constraint filter: the buildtags
// golden package contains a //go:build ignore file that would fail type
// checking, so a successful load proves the file was excluded.
func TestLoaderBuildTags(t *testing.T) {
	res, err := Load(".", "./testdata/src/buildtags")
	if err != nil {
		t.Fatalf("Load buildtags: %v", err)
	}
	if len(res.Units) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(res.Units))
	}
	u := res.Units[0]
	if len(u.Files) != 1 {
		t.Errorf("buildtags loaded %d files, want 1 (excluded.go must be filtered)", len(u.Files))
	}
	if f := Run(res, Suite()); len(f) != 0 {
		t.Errorf("buildtags package should be clean, got %v", f)
	}
}

// TestLoaderSkipsNestedTestdata pins the recursive walk's testdata
// exclusion: nestpkg's own testdata/inner package carries a blatant
// floatcmp finding that must not surface recursively but must when the
// directory is named directly.
func TestLoaderSkipsNestedTestdata(t *testing.T) {
	res, err := Load(".", "./testdata/src/nestpkg/...")
	if err != nil {
		t.Fatalf("Load nestpkg/...: %v", err)
	}
	if len(res.Units) != 1 || filepath.Base(res.Units[0].Dir) != "nestpkg" {
		t.Fatalf("recursive load = %d units (first %v), want just nestpkg",
			len(res.Units), res.Units)
	}
	if f := Run(res, Suite()); len(f) != 0 {
		t.Errorf("nestpkg should be clean recursively, got %v", f)
	}

	direct, err := Load(".", "./testdata/src/nestpkg/testdata/inner")
	if err != nil {
		t.Fatalf("Load inner directly: %v", err)
	}
	f := Run(direct, Suite())
	if len(f) != 1 || f[0].Rule != "floatcmp" {
		t.Errorf("inner loaded directly: findings = %v, want one floatcmp", f)
	}
}

// TestLoaderTypeErrorIsError pins the failure mode for broken source: a
// package that does not type-check must surface as a load error (the
// driver's exit 2), never a panic partway into analysis.
func TestLoaderTypeErrorIsError(t *testing.T) {
	_, err := Load(".", "./testdata/broken/badtypes")
	if err == nil {
		t.Fatal("Load of a type-broken package should fail")
	}
	if !strings.Contains(err.Error(), "typecheck") {
		t.Errorf("error should name the typecheck phase: %v", err)
	}
}

// BenchmarkLintModule is the CI wall-time benchmark: one whole-repo load
// plus a full five-rule run.
func BenchmarkLintModule(b *testing.B) {
	root := moduleRoot(b)
	for i := 0; i < b.N; i++ {
		res, err := Load(root)
		if err != nil {
			b.Fatal(err)
		}
		if f := Run(res, Suite()); len(f) != 0 {
			b.Fatalf("repository not lint-clean: %v", f)
		}
	}
}

// TestLoadRejectsOutsideModule pins the loader's module boundary.
func TestLoadRejectsOutsideModule(t *testing.T) {
	if _, err := Load(".", "/"); err == nil {
		t.Fatal("Load with a pattern outside the module should fail")
	}
}

// TestSuppressionAdjacency verifies a directive covers its own line and
// the next line, but nothing further.
func TestSuppressionAdjacency(t *testing.T) {
	sup := suppressions{"f.go": {10: {"floatcmp": true}}}
	cases := []struct {
		line int
		want bool
	}{{10, true}, {11, true}, {9, false}, {12, false}}
	for _, c := range cases {
		f := Finding{Rule: "floatcmp", File: "f.go", Line: c.line}
		if got := sup.covers(f); got != c.want {
			t.Errorf("line %d: covered = %v, want %v", c.line, got, c.want)
		}
	}
	other := Finding{Rule: "errcheck", File: "f.go", Line: 10}
	if sup.covers(other) {
		t.Error("directive for floatcmp should not cover errcheck")
	}
}

func ExampleWriteJSON() {
	_ = WriteJSON(os.Stdout, []Finding{})
	// Output:
	// {
	//   "findings": [],
	//   "count": 0
	// }
}
