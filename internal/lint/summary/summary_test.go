package summary_test

import (
	"strings"
	"testing"

	"locwatch/internal/lint/callgraph"
	"locwatch/internal/lint/loader"
	"locwatch/internal/lint/summary"
)

func loadFixture(t *testing.T) *summary.Set {
	t.Helper()
	ld := loader.New(loader.SrcDir("testdata/src"))
	pkg, err := ld.Load("sum")
	if err != nil {
		t.Fatalf("loading sum: %v", err)
	}
	g := callgraph.Build([]*loader.Package{pkg})
	return summary.Compute(g)
}

func facts(t *testing.T, s *summary.Set, suffix string) *summary.Facts {
	t.Helper()
	for _, n := range s.Graph.Nodes() {
		if strings.HasSuffix(n.Name(), suffix) {
			f := s.OfNode(n)
			if f == nil {
				t.Fatalf("no facts for %s", n.Name())
			}
			return f
		}
	}
	t.Fatalf("no node with suffix %q", suffix)
	return nil
}

func TestMayNilFacts(t *testing.T) {
	s := loadFixture(t)
	cases := []struct {
		fn     string
		mayNil bool
	}{
		{"sum.MaybeNil", true},
		{"sum.Wraps", true}, // inherited through the call
		{"sum.Fresh", false},
		{"sum.BareNamed", true}, // zero-valued named result
	}
	for _, c := range cases {
		f := facts(t, s, c.fn)
		if len(f.ResultMayNil) == 0 || f.ResultMayNil[0] != c.mayNil {
			t.Errorf("%s ResultMayNil = %v, want [0]=%v", c.fn, f.ResultMayNil, c.mayNil)
		}
	}
}

func TestErrorCorrelation(t *testing.T) {
	s := loadFixture(t)
	checked := facts(t, s, "sum.NewChecked")
	if !checked.ResultMayNil[0] {
		t.Error("NewChecked must be may-nil")
	}
	if !checked.NilOnlyWithError {
		t.Error("NewChecked must carry the nil-only-with-error contract")
	}
	uncorr := facts(t, s, "sum.Uncorrelated")
	if !uncorr.ResultMayNil[0] {
		t.Error("Uncorrelated must be may-nil")
	}
	if uncorr.NilOnlyWithError {
		t.Error("Uncorrelated returns (nil, nil): the contract must not hold")
	}
}
