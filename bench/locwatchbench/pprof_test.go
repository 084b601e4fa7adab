package main

import (
	"math"
	"os"
	"testing"
)

// TestRollupFixture rolls up a checked-in `go tool pprof -raw` listing
// whose every sample exercises one attribution rule.
func TestRollupFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/raw.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, total, err := rollup(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"mobility": 0.04, // math.Sincos and runtime.mallocgc charged to their mobility caller
		"geo":      0.02, // math.Cos inlined into geo.LocalDistance
		"gc":       0.04, // under runtime.gcBgMarkWorker
		"json":     0.01, // innermost wire-path frame wins over stream and net/http
		"other":    0.02, // a bare asm helper under a generic with spaces in its name
		"runtime":  0.01, // a stack that is all runtime
	}
	if math.Abs(total-0.14) > 1e-9 {
		t.Errorf("total %v, want 0.14", total)
	}
	for _, l := range cpuLayers {
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("%s.cpu_s = %v, want %v", l, got[l], want[l])
		}
	}
	if _, _, err := rollup([]byte("no profile here\n")); err == nil {
		t.Error("rollup accepted text that is not a pprof listing")
	}
}
