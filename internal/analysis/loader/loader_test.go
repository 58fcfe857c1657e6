package loader

import (
	"go/types"
	"strings"
	"testing"
)

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := New(".")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if l.ModulePath != "cisp" {
		t.Fatalf("module path = %q, want cisp", l.ModulePath)
	}
	return l
}

func TestLoadTypedPackage(t *testing.T) {
	l := newTestLoader(t)
	pkg, err := l.Load("cisp/internal/graph", false)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if pkg.Types.Name() != "graph" {
		t.Fatalf("package name = %q", pkg.Types.Name())
	}
	if len(pkg.Info.Uses) == 0 {
		t.Fatal("no Uses recorded; type info missing")
	}
}

func TestLoadWithTestsIncludesTestFiles(t *testing.T) {
	l := newTestLoader(t)
	pkg, err := l.Load("cisp/internal/parallel", true)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	hasTest := false
	for _, f := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.File(f.Pos()).Name(), "_test.go") {
			hasTest = true
		}
	}
	if !hasTest {
		t.Fatal("in-package test files were not loaded")
	}
}

func TestModulePackagesSkipsTestdata(t *testing.T) {
	l := newTestLoader(t)
	pkgs, err := l.ModulePackages()
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	seenRoot, seenNetsim := false, false
	for _, p := range pkgs {
		if strings.Contains(p, "testdata") {
			t.Fatalf("testdata package listed: %s", p)
		}
		switch p {
		case "cisp":
			seenRoot = true
		case "cisp/internal/netsim":
			seenNetsim = true
		}
	}
	if !seenRoot || !seenNetsim {
		t.Fatalf("expected cisp and cisp/internal/netsim in %v", pkgs)
	}
}

// TestLoadDirImportForms pins that the source importer resolves the units
// package through every import spelling the analyzers must see through: a
// named alias, a dot-import, and a vendored-style re-export package that is
// itself reached by its full module path from a sibling testdata directory.
// In each fixture some used type must bottom out (through alias chains) at
// a named type declared in cisp/internal/units.
func TestLoadDirImportForms(t *testing.T) {
	l := newTestLoader(t)
	cases := []struct{ dir, name string }{
		{"../unitcheck/testdata/src/aliasimport", "aliasimport"},
		{"../unitcheck/testdata/src/dotimport", "dotimport"},
		{"../unitcheck/testdata/src/reexport", "reexport"},
	}
	for _, c := range cases {
		pkg, err := l.LoadDir(c.dir, c.name)
		if err != nil {
			t.Errorf("LoadDir(%s): %v", c.dir, err)
			continue
		}
		if pkg.Types.Name() != c.name {
			t.Errorf("package name = %q, want %q", pkg.Types.Name(), c.name)
		}
		found := false
		for _, obj := range pkg.Info.Uses {
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok &&
				named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "cisp/internal/units" {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no used type resolves to cisp/internal/units", c.name)
		}
	}
}

func TestLoadXTest(t *testing.T) {
	l := newTestLoader(t)
	// The root package has an external bench test (package cisp_test).
	pkg, err := l.LoadXTest("cisp")
	if err != nil {
		t.Fatalf("LoadXTest: %v", err)
	}
	if pkg == nil {
		t.Skip("no external test package at module root")
	}
	if pkg.Types.Name() != "cisp_test" {
		t.Fatalf("xtest package name = %q", pkg.Types.Name())
	}
}

// TestLoadXTestSeesExportHooks: an external test package imports its
// package with the in-package test files, as the go command builds it.
// design's pins_test.go (package design_test) calls the export_test.go
// hook design.GreedyILPNodes, and passes it a *design.Problem made by the
// root package cisp, which imports design: both must be the one type.
func TestLoadXTestSeesExportHooks(t *testing.T) {
	l := newTestLoader(t)
	if _, err := l.Load("cisp", false); err != nil { // warm the cache with design's plain view
		t.Fatalf("Load: %v", err)
	}
	pkg, err := l.LoadXTest("cisp/internal/design")
	if err != nil {
		t.Fatalf("LoadXTest: %v", err)
	}
	if pkg == nil {
		t.Fatal("no external test package for design")
	}
	found := false
	for id, obj := range pkg.Info.Uses {
		if id.Name == "GreedyILPNodes" && obj.Pkg() != nil && obj.Pkg().Path() == "cisp/internal/design" {
			found = true
		}
	}
	if !found {
		t.Fatal("design_test does not resolve the export_test.go hook GreedyILPNodes")
	}
	// The plain view is still what other importers get.
	plain, err := l.Import("cisp/internal/design")
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if plain.Scope().Lookup("GreedyILPNodes") != nil {
		t.Fatal("the export_test.go hook leaked into design's plain view")
	}
}
