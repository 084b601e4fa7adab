package lint_test

import (
	"strings"
	"testing"

	"locwatch/internal/lint"
	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/loader"
)

// TestLockSafeWitnessPaths pins the shape of a locksafe finding beyond
// its message: the report at the unlocked access must carry both
// halves of the race — the goroutine-side path (the spawn site, plus
// the call-chain hops when the access is reached through named
// methods) and a main-side access with the locks it holds.
func TestLockSafeWitnessPaths(t *testing.T) {
	ld := loader.New(loader.SrcDir("testdata/src"))
	pkg, err := ld.Load("locksafe")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.BuildProgram([]*loader.Package{pkg}, nil).Run([]*analysis.Analyzer{lint.LockSafe})
	if err != nil {
		t.Fatal(err)
	}
	byField := func(sub string) *lint.Finding {
		t.Helper()
		for i := range findings {
			if strings.Contains(findings[i].Message, sub) {
				return &findings[i]
			}
		}
		t.Fatalf("no finding mentioning %q in %v", sub, findings)
		return nil
	}
	relWith := func(f *lint.Finding, sub string) bool {
		for _, r := range f.Related {
			if strings.Contains(r.Message, sub) {
				return true
			}
		}
		return false
	}

	// The deliberate race: Bump's bare write carries the spawn site on
	// one side and the goroutine's access, nothing main-side missing.
	bump := byField("Counter.n")
	if len(bump.Related) < 2 {
		t.Fatalf("Counter.n finding has %d related positions, want >= 2: %+v", len(bump.Related), bump.Related)
	}
	if !relWith(bump, "goroutine spawned here, in (*locksafe.Counter).Start") {
		t.Errorf("Counter.n witness lacks the spawn site: %+v", bump.Related)
	}
	if !relWith(bump, "goroutine-side access") {
		t.Errorf("Counter.n witness lacks the goroutine-side access: %+v", bump.Related)
	}

	// The named-method chain: step is two hops from `go p.loop()`, so
	// the witness walks spawn → loop → step, and the main side names
	// Enqueue with the lock it holds.
	pump := byField("Pump.buf")
	if !relWith(pump, "goroutine spawned here, in (*locksafe.Pump).Run") {
		t.Errorf("Pump.buf witness lacks the spawn site: %+v", pump.Related)
	}
	if !relWith(pump, "which calls (*locksafe.Pump).step") {
		t.Errorf("Pump.buf witness lacks the call-chain hop: %+v", pump.Related)
	}
	if !relWith(pump, "main-side access in (*locksafe.Pump).Enqueue (holds Pump.mu)") {
		t.Errorf("Pump.buf witness lacks the locked main-side access: %+v", pump.Related)
	}
}
