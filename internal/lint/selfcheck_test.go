package lint_test

import (
	"testing"

	"locwatch/internal/lint"
	"locwatch/internal/lint/loader"
)

// TestRegistryComplete pins the 15-analyzer suite: the interprocedural
// tier (detreach, privtaint, spawnleak, the summary-driven nilfacade),
// the concurrency tier (locksafe, chanowner, ctxflow) and the deadlock
// tier (lockorder, blockhold) must be registered alongside the
// syntactic and flow-sensitive tiers, so `locwatchlint ./...` and
// TestSuiteCleanOnRepo actually gate on them.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"angleunits", "blockhold", "chanowner", "ctxflow", "detreach",
		"durationseconds", "errflow", "exhaustenum", "latlonbounds",
		"lockedmap", "lockorder", "locksafe", "nilfacade", "privtaint",
		"spawnleak",
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
}
