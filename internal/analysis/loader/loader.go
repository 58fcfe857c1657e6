// Package loader parses and type-checks packages of this module from
// source, with no network, no go/packages and no export-data files: the
// standard library resolves through the compiler-independent "source"
// importer (GOROOT source), and module-internal imports resolve by
// recursively type-checking the imported directory. It exists so the
// cisplint analyzers (internal/analysis) can run both standalone — over
// the whole module, in tests and in CI — and over the synthetic packages
// under an analyzer's testdata tree, which `go list` cannot see.
//
// The loader is deliberately minimal: one module, pure-Go files only,
// build tags ignored. That is exactly the shape of this repository, and
// keeping it so is what lets the determinism lint run hermetically.
package loader

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one analyzed compilation unit: a package's files (plus, when
// requested, its in-package _test.go files) with full type information.
type Package struct {
	// ImportPath is the unit's import path ("cisp/internal/netsim"); for
	// an external test package it carries the "_test" suffix.
	ImportPath string
	// Dir is the directory the files were read from.
	Dir string
	// Fset is the loader-wide file set (shared across all units).
	Fset *token.FileSet
	// Files are the parsed files of the unit, in file-name order.
	Files []*ast.File
	// Types and Info hold the go/types results for the unit.
	Types *types.Package
	Info  *types.Info
}

// Loader loads and caches packages of a single module.
type Loader struct {
	// ModuleRoot is the absolute directory holding go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string
	// GoVersion is the "go X.Y" directive, in types.Config form ("go1.24").
	GoVersion string

	fset  *token.FileSet
	std   types.ImporterFrom       // GOROOT source importer
	cache map[string]*loadedImport // import-path → base (no-test) package
}

type loadedImport struct {
	pkg *types.Package
	err error
}

// New builds a Loader for the module rooted at (or above) dir.
func New(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, goVers, err := readGoMod(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("loader: source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		GoVersion:  goVers,
		fset:       fset,
		std:        std,
		cache:      make(map[string]*loadedImport),
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("loader: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

func readGoMod(path string) (modPath, goVersion string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", "", err
	}
	goVersion = "go1.21" // floor if the directive is missing
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
		} else if rest, ok := strings.CutPrefix(line, "go "); ok {
			goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return "", "", fmt.Errorf("loader: no module directive in %s", path)
	}
	return modPath, goVersion, nil
}

// Fset returns the loader-wide file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths
// type-check recursively from source, everything else is assumed to be
// standard library and resolves from GOROOT source.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		return l.importModulePackage(path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// importModulePackage type-checks a module package without its test files
// (the view importers get), memoized per import path.
func (l *Loader) importModulePackage(path string) (*types.Package, error) {
	if c, ok := l.cache[path]; ok {
		return c.pkg, c.err
	}
	// Mark in-progress to fail fast on import cycles instead of recursing
	// forever.
	l.cache[path] = &loadedImport{err: fmt.Errorf("loader: import cycle through %q", path)}
	pkg, err := l.loadUnit(path, l.dirFor(path), unitBase)
	c := &loadedImport{err: err}
	if err == nil {
		c.pkg = pkg.Types
	}
	l.cache[path] = c
	return c.pkg, c.err
}

func (l *Loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// unit selection: which files of a directory form the compilation unit.
type unitKind int

const (
	unitBase      unitKind = iota // non-test files only
	unitWithTests                 // non-test + in-package _test.go files
	unitXTest                     // external test package (pkg_test) files only
)

// Load type-checks the module package with the given import path,
// including its in-package test files when withTests is set.
func (l *Loader) Load(importPath string, withTests bool) (*Package, error) {
	kind := unitBase
	if withTests {
		kind = unitWithTests
	}
	return l.loadUnit(importPath, l.dirFor(importPath), kind)
}

// LoadXTest type-checks the external test package (package foo_test) of
// the given module package, or returns (nil, nil) when there is none. As
// under the go command, the external test package imports the package
// together with its in-package test files, so it sees an export_test.go
// hook, and so does every module package it imports that depends on it.
func (l *Loader) LoadXTest(importPath string) (*Package, error) {
	dir := l.dirFor(importPath)
	names, err := unitFileNames(dir, unitXTest)
	if err != nil || len(names) == 0 {
		return nil, err
	}
	return l.testView(importPath).loadUnit(importPath+"_test", dir, unitXTest)
}

// testView returns a loader whose importers see importPath with its
// in-package test files. It shares l's file set and standard-library
// importer and reuses l's cached packages that do not depend on
// importPath; the ones that do are type-checked again against the test
// view, so the external test package sees one version of each type.
func (l *Loader) testView(importPath string) *Loader {
	v := *l
	v.cache = make(map[string]*loadedImport, len(l.cache))
	deps := map[*types.Package]bool{}
	for path, c := range l.cache {
		if c.err == nil && !dependsOn(c.pkg, importPath, deps) {
			v.cache[path] = c
		}
	}
	p, err := v.loadUnit(importPath, v.dirFor(importPath), unitWithTests)
	c := &loadedImport{err: err}
	if err == nil {
		c.pkg = p.Types
	}
	v.cache[importPath] = c
	return &v
}

// dependsOn reports whether pkg is path or imports it, directly or not,
// memoizing verdicts in seen.
func dependsOn(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	if pkg.Path() == path {
		return true
	}
	if v, ok := seen[pkg]; ok {
		return v
	}
	seen[pkg] = false // an import cycle cannot type-check; break it anyway
	for _, imp := range pkg.Imports() {
		if dependsOn(imp, path, seen) {
			seen[pkg] = true
			return true
		}
	}
	return false
}

// LoadDir type-checks the single package in dir (outside the module tree,
// e.g. analyzer testdata) under the given import path. Test files in dir
// are included.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	return l.loadUnit(importPath, dir, unitWithTests)
}

func unitFileNames(dir string, kind unitKind) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		switch kind {
		case unitBase:
			if isTest {
				continue
			}
		case unitXTest:
			if !isTest {
				continue
			}
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (l *Loader) loadUnit(importPath, dir string, kind unitKind) (*Package, error) {
	names, err := unitFileNames(dir, kind)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var pkgName string
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		switch kind {
		case unitWithTests:
			// An external-test file (package foo_test) is its own unit.
			if strings.HasSuffix(f.Name.Name, "_test") {
				continue
			}
		case unitXTest:
			if !strings.HasSuffix(f.Name.Name, "_test") {
				continue
			}
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("loader: %s: mixed packages %q and %q", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		if kind == unitXTest {
			// All _test.go files were in-package: there is no external
			// test package here.
			return nil, nil
		}
		return nil, fmt.Errorf("loader: no Go files for %s in %s", importPath, dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := &types.Config{Importer: l, GoVersion: l.GoVersion}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// ModulePackages walks the module tree and returns the import path of
// every Go package in it, sorted. testdata trees, hidden directories and
// directories without Go files are skipped.
func (l *Loader) ModulePackages() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		names, err := unitFileNames(path, unitBase)
		if err != nil {
			return err
		}
		hasTests := false
		if len(names) == 0 {
			// Test-only directories still form a unit (e.g. a directory
			// holding only _test.go files).
			all, err := unitFileNames(path, unitWithTests)
			if err != nil {
				return err
			}
			hasTests = len(all) > 0
		}
		if len(names) > 0 || hasTests {
			rel, err := filepath.Rel(l.ModuleRoot, path)
			if err != nil {
				return err
			}
			ip := l.ModulePath
			if rel != "." {
				ip += "/" + filepath.ToSlash(rel)
			}
			out = append(out, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
