package loader

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The lint fixtures double as loader test inputs: they import each
// other (latlonbounds → geo) and the standard library (sync, math,
// time), covering both resolution paths.
const fixtureRoot = "../testdata/src"

func TestLoadFixturePackage(t *testing.T) {
	ld := New(SrcDir(fixtureRoot))
	pkg, err := ld.Load("latlonbounds")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Name != "latlonbounds" {
		t.Fatalf("package name = %q, want latlonbounds", pkg.Name)
	}
	if len(pkg.Files) == 0 || pkg.Types == nil || pkg.TypesInfo == nil {
		t.Fatal("loaded package missing files or type information")
	}
	// Loading again returns the memoized package.
	again, err := ld.Load("latlonbounds")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Fatal("second Load returned a different package instance")
	}
	// The geo dependency was loaded transitively and is memoized too:
	// loading it returns the package latlonbounds was checked against.
	dep, err := ld.Load("geo")
	if err != nil {
		t.Fatal(err)
	}
	var imported bool
	for _, imp := range pkg.Types.Imports() {
		imported = imported || imp == dep.Types
	}
	if !imported {
		t.Fatal("geo was not loaded as a memoized dependency")
	}
	if dep.Types.Scope().Lookup("LatLon") == nil {
		t.Fatal("geo stub lost its LatLon type")
	}
}

func TestLoadUnresolvable(t *testing.T) {
	ld := New(SrcDir(fixtureRoot))
	if _, err := ld.Load("no/such/package"); err == nil {
		t.Fatal("loading a nonexistent package succeeded")
	}
}

// TestLoadCycle pins that an import cycle is an error, not unbounded
// recursion.
func TestLoadCycle(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"a/a.go": "package a\n\nimport _ \"b\"\n",
		"b/b.go": "package b\n\nimport _ \"a\"\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := New(SrcDir(root)).Load("a")
	if err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("Load over an import cycle: err = %v, want an import cycle error", err)
	}
}

// TestGoListDeps checks the listing contract on the real module: the
// roots are exactly the packages the patterns match, dependencies
// appear in Packages only, and the standard library appears in
// neither.
func TestGoListDeps(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := GoListDeps(root, "./internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Roots) != 1 || mod.Roots[0] != "locwatch/internal/lint" {
		t.Fatalf("roots = %v, want [locwatch/internal/lint]", mod.Roots)
	}
	lintMeta, ok := mod.Packages["locwatch/internal/lint"]
	if !ok || len(lintMeta.GoFiles) == 0 {
		t.Fatalf("internal/lint metadata = %+v, want its Go files", lintMeta)
	}
	if _, ok := mod.Packages["locwatch/internal/lint/cfg"]; !ok {
		t.Fatal("dependency internal/lint/cfg missing from Packages")
	}
	if _, ok := mod.Packages["go/types"]; ok {
		t.Fatal("standard package go/types listed among module packages")
	}
}

// TestModuleLoad drives the module load path: roots come back in Roots
// order, module-local dependencies are loaded from source, and the
// standard library is imported from export data.
func TestModuleLoad(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := GoListDeps(root, "./internal/lint/analysistest", "./internal/lint/analysis")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := mod.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].Path != mod.Roots[0] || pkgs[1].Path != mod.Roots[1] {
		t.Fatalf("Load returned %d packages, want the roots %v in order", len(pkgs), mod.Roots)
	}
	var dep *types.Package
	for _, imp := range pkgs[1].Types.Imports() {
		if imp.Path() == "locwatch/internal/lint/loader" {
			dep = imp
		}
	}
	if dep == nil {
		t.Fatal("dependency internal/lint/loader missing after Load")
	}
	var stdTypes bool
	for _, imp := range dep.Imports() {
		stdTypes = stdTypes || imp.Path() == "go/types" && imp.Scope().Lookup("Config") != nil
	}
	if !stdTypes {
		t.Fatal("go/types was not imported with its Config type")
	}
}

func TestModuleRoot(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %s has no go.mod: %v", root, err)
	}
}
