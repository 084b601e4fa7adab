package lint_test

import (
	"go/token"
	"strings"
	"testing"

	"locwatch/internal/lint"
	"locwatch/internal/lint/loader"
)

// TestRegistryComplete pins the 6-analyzer suite: the interprocedural
// tier (privtaint, the summary-driven nilfacade) must be registered
// alongside the syntactic and flow-sensitive tiers, so
// `locwatchlint ./...` and TestSuiteCleanOnRepo actually gate on them.
// TestSeededDefects decides who belongs on the list.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"durationseconds", "errflow", "exhaustenum",
		"latlonbounds", "nilfacade", "privtaint",
	}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("lint.All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("lint.All()[%d] = %s, want %s (suite must stay sorted)", i, a.Name, want[i])
		}
	}
}

// TestSuiteCleanOnRepo is the cmd/locwatchlint smoke test: the full
// analyzer suite over every package of this module must report nothing,
// which is exactly what `locwatchlint ./...` exiting 0 means. It
// type-checks the entire repository, so it doubles as a regression
// net for the loader itself.
//
// It also keeps the in-source suppressions honest: every //lint:ignore
// directive must silence at least one finding of each analyzer it
// names. A directive that silences nothing would hide the next real
// finding on its lines.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root, err := loader.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := loader.GoListDeps(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Roots) < 10 {
		t.Fatalf("go list ./... resolved only %d packages: %v", len(mod.Roots), mod.Roots)
	}
	ld, pkgs, err := mod.Load()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.BuildProgram(pkgs, ld.Package).Run(lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Active() {
			t.Errorf("%s", f)
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
					if len(fields) < 2 || fields[0] != "lint:ignore" {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, name := range strings.Split(fields[1], ",") {
						if !silences(findings, name, pos) {
							t.Errorf("%s: //lint:ignore %s silences no %s finding", pos, fields[1], name)
						}
					}
				}
			}
		}
	}
}

// silences reports whether a directive at pos naming analyzer name
// suppresses one of the findings: a directive covers its own line and
// the line below it, and "all" names every analyzer.
func silences(findings []lint.Finding, name string, pos token.Position) bool {
	for _, f := range findings {
		if !f.Active() && f.File == pos.Filename &&
			(f.Line == pos.Line || f.Line == pos.Line+1) &&
			(name == "all" || f.Analyzer == name) {
			return true
		}
	}
	return false
}
