package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Result is one load: the module root, every package found (sorted by
// import path), and the FileSet all positions resolve against.
type Result struct {
	Root  string // absolute module root directory
	Fset  *token.FileSet
	Units []*Unit
}

// Load locates the module enclosing dir (walking up to the first go.mod)
// and parses + type-checks every package at or below dir with only the
// standard library's go/* machinery. Below dir, testdata, vendor, dot- and
// underscore-directories are skipped, as the go tool skips them for
// "dir/..."; a golden package under testdata is reached by naming its
// directory.
//
// Module-internal imports resolve to freshly checked packages; everything
// else (the standard library) is type-checked from GOROOT source via the
// "source" importer, so the loader works without compiled export data.
// Build constraints are honored per file: a //go:build-excluded file (or a
// GOOS/GOARCH-suffixed file for another platform) is skipped exactly as
// the go tool would skip it, instead of being force-fed to the type
// checker.
func Load(dir string) (*Result, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}

	// The module is pure Go; checking the cgo variants of stdlib packages
	// from source would need the cgo preprocessor, so resolve the build
	// graph as if CGO_ENABLED=0.
	ctx := build.Default
	ctx.CgoEnabled = false
	build.Default = ctx

	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		units:   map[string]*Unit{},
		stdPkgs: map[string]*types.Package{},
	}

	dirs, err := packageDirs(dir)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files at or below %s", dir)
	}
	res := &Result{Root: root, Fset: fset}
	for _, d := range dirs {
		u, err := ld.load(ld.pathFor(d))
		if err != nil {
			return nil, err
		}
		res.Units = append(res.Units, u)
	}
	sort.Slice(res.Units, func(i, j int) bool { return res.Units[i].Path < res.Units[j].Path })
	return res, nil
}

// findModule walks up from dir to the first go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// packageDirs returns every directory at or below dir that holds a
// non-test Go file, in walk (lexical) order.
func packageDirs(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(dir, func(d string, ent os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !ent.IsDir() {
			return nil
		}
		name := ent.Name()
		if d != dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(d) {
			out = append(out, d)
		}
		return nil
	})
	return out, err
}

// hasGoFiles reports whether dir holds at least one non-test Go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// loader type-checks module packages on demand, memoizing by import path.
// It is the types.Importer for the module's own import graph; standard
// library paths fall through to the source importer.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.Importer
	units   map[string]*Unit
	stdPkgs map[string]*types.Package
	loading []string // import stack, for cycle reporting
}

// pathFor maps an absolute package directory to its import path.
func (l *loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// dirFor maps a module-internal import path to its directory.
func (l *loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// Import implements types.Importer over the chain: module packages are
// loaded (and checked later, if they lie under Load's directory); the rest
// comes from GOROOT source.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		u, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	if p, ok := l.stdPkgs[path]; ok {
		return p, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, fmt.Errorf("lint: import %q: %w", path, err)
	}
	l.stdPkgs[path] = p
	return p, nil
}

// load parses and type-checks one module package (memoized).
func (l *loader) load(path string) (*Unit, error) {
	if u, ok := l.units[path]; ok {
		if u == nil {
			return nil, fmt.Errorf("lint: import cycle: %s", strings.Join(append(l.loading, path), " -> "))
		}
		return u, nil
	}
	l.units[path] = nil // cycle marker
	l.loading = append(l.loading, path)
	defer func() { l.loading = l.loading[:len(l.loading)-1] }()

	dir := l.dirFor(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: package %s: %w", path, err)
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		// Honor build constraints (//go:build lines and GOOS/GOARCH file
		// suffixes) exactly as the go tool does: a tag-excluded file is
		// not part of the package and must not be parsed or type-checked.
		match, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, fmt.Errorf("lint: package %s: %s: %w", path, n, err)
		}
		if !match {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	sort.Strings(names)

	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	conf := types.Config{Importer: l}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	u := &Unit{
		Path:     path,
		Rel:      rel,
		Dir:      dir,
		Files:    files,
		Pkg:      pkg,
		Info:     info,
		Testdata: strings.Contains("/"+rel+"/", "/testdata/"),
	}
	l.units[path] = u
	return u, nil
}
