package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadTestdata loads every golden package under testdata/src in one shot.
func loadTestdata(t *testing.T) *Result {
	t.Helper()
	res, err := Load("testdata/src")
	if err != nil {
		t.Fatalf("Load testdata: %v", err)
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
// fire and how often — one flagged and one clean case per check.
func TestGoldenPackages(t *testing.T) {
	res := loadTestdata(t)
	findings := Check(res)

	got := map[string]map[string]int{}
	for _, u := range res.Units {
		got[filepath.Base(u.Dir)] = map[string]int{}
	}
	for _, f := range findings {
		got[goldenPkg(t, f.File)][f.Rule]++
	}

	want := map[string]map[string]int{
		"determinism_bad": {"determinism": 4},
		"determinism_ok":  {},
		"errcheck_bad":    {"errcheck": 2},
		"errcheck_ok":     {},
		// Loader edge-case packages: buildtags carries a //go:build ignore
		// file that must be filtered out, nestpkg hides a flagged package
		// under its own testdata dir that recursive walks must skip.
		"buildtags": {},
		"nestpkg":   {},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings per golden package = %v, want %v", got, want)
	}
}

// TestFindingsAreSorted asserts Check's deterministic output order.
func TestFindingsAreSorted(t *testing.T) {
	findings := Check(loadTestdata(t))
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Fatalf("findings out of order: %v before %v", a, b)
		}
	}
}

// TestRepositoryLintClean is the gate: every package of the tree,
// benchmark/ included, type-checks and passes both checks.
func TestRepositoryLintClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modPath, err := findModule(wd)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Load(root)
	if err != nil {
		t.Fatalf("Load %s: %v", root, err)
	}
	walked := false
	for _, u := range res.Units {
		walked = walked || u.Path == modPath+"/benchmark"
	}
	if !walked {
		t.Errorf("the walk of %s did not reach benchmark/", root)
	}
	for _, f := range Check(res) {
		t.Errorf("repository not lint-clean: %v", f)
	}
}

// TestLoaderBuildTags pins the build-constraint filter: the buildtags
// golden package contains a //go:build ignore file that would fail type
// checking, so a successful load proves the file was excluded.
func TestLoaderBuildTags(t *testing.T) {
	res, err := Load("testdata/src/buildtags")
	if err != nil {
		t.Fatalf("Load buildtags: %v", err)
	}
	if len(res.Units) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(res.Units))
	}
	if n := len(res.Units[0].Files); n != 1 {
		t.Errorf("buildtags loaded %d files, want 1 (excluded.go must be filtered)", n)
	}
	if f := Check(res); len(f) != 0 {
		t.Errorf("buildtags package should be clean, got %v", f)
	}
}

// TestLoaderSkipsNestedTestdata pins the walk's testdata exclusion:
// nestpkg's own testdata/inner package carries a blatant determinism
// finding that must not surface from a walk of nestpkg, but must when the
// directory is loaded directly.
func TestLoaderSkipsNestedTestdata(t *testing.T) {
	res, err := Load("testdata/src/nestpkg")
	if err != nil {
		t.Fatalf("Load nestpkg: %v", err)
	}
	if len(res.Units) != 1 || filepath.Base(res.Units[0].Dir) != "nestpkg" {
		t.Fatalf("walk loaded %d units (first %v), want just nestpkg", len(res.Units), res.Units)
	}
	if f := Check(res); len(f) != 0 {
		t.Errorf("nestpkg should be clean, got %v", f)
	}

	direct, err := Load("testdata/src/nestpkg/testdata/inner")
	if err != nil {
		t.Fatalf("Load inner directly: %v", err)
	}
	if f := Check(direct); len(f) != 1 || f[0].Rule != "determinism" {
		t.Errorf("inner loaded directly: findings = %v, want one determinism", f)
	}
}

// TestLoaderTypeErrorIsError pins the failure mode for broken source: a
// package that does not type-check must surface as a load error, never a
// panic partway into a check.
func TestLoaderTypeErrorIsError(t *testing.T) {
	_, err := Load("testdata/broken/badtypes")
	if err == nil {
		t.Fatal("Load of a type-broken package should fail")
	}
	if !strings.Contains(err.Error(), "typecheck") {
		t.Errorf("error should name the typecheck phase: %v", err)
	}
}

// TestLoadRejectsOutsideModule pins the loader's module boundary: a
// directory with no go.mod above it is an error.
func TestLoadRejectsOutsideModule(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("Load of a directory outside any module should fail")
	}
}
