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

func TestSpawnAndTokens(t *testing.T) {
	s := loadFixture(t)
	np := facts(t, s, "sum.NewPool")
	if len(np.Tokens.WgDone) != 1 || len(np.Tokens.ChRecv) != 1 {
		t.Errorf("NewPool tokens = %+v, want one WgDone and one ChRecv", np.Tokens)
	}
	cl := facts(t, s, "Pool).Close")
	if len(cl.Tokens.ChClose) != 1 || len(cl.Tokens.WgWait) != 1 {
		t.Errorf("Close tokens = %+v, want one ChClose and one WgWait", cl.Tokens)
	}
	// The worker's Done and Close's Wait must resolve to the same
	// WaitGroup field, and likewise for the channel.
	if np.Tokens.WgDone[0] != cl.Tokens.WgWait[0] {
		t.Error("worker Done and Close Wait must name the same field variable")
	}
	if np.Tokens.ChRecv[0] != cl.Tokens.ChClose[0] {
		t.Error("worker range and Close close must name the same channel field")
	}
}
