package callgraph_test

import (
	"strings"
	"testing"

	"locwatch/internal/lint/callgraph"
	"locwatch/internal/lint/loader"
)

// loadFixture builds the graph over the cg fixture and its obs dep.
func loadFixture(t testing.TB) *callgraph.Graph {
	t.Helper()
	ld := loader.New(loader.SrcDir("testdata/src"))
	pkg, err := ld.Load("cg")
	if err != nil {
		t.Fatalf("loading cg: %v", err)
	}
	obs := ld.Package("cg/obs")
	if obs == nil {
		t.Fatal("cg/obs was not loaded as a dependency")
	}
	return callgraph.Build([]*loader.Package{pkg, obs})
}

// node finds a graph node by fully qualified name suffix.
func node(t testing.TB, g *callgraph.Graph, suffix string) *callgraph.Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if strings.HasSuffix(n.Name(), suffix) {
			return n
		}
	}
	t.Fatalf("no node with suffix %q among %d functions", suffix, len(g.Nodes()))
	return nil
}

func callees(n *callgraph.Node) map[string]bool {
	out := make(map[string]bool)
	for _, e := range n.Out {
		out[e.Callee.Name()] = true
	}
	return out
}

func TestStaticEdges(t *testing.T) {
	g := loadFixture(t)
	bNext := node(t, g, "B).Next")
	if !callees(bNext)["cg.clockInt"] {
		t.Errorf("(*B).Next callees = %v, want cg.clockInt", callees(bNext))
	}
	even := node(t, g, "cg.Even")
	if !callees(even)["cg.Odd"] {
		t.Errorf("Even callees = %v, want cg.Odd", callees(even))
	}
}

func TestCHADispatch(t *testing.T) {
	g := loadFixture(t)
	drive := node(t, g, "cg.Drive")
	got := callees(drive)
	for _, want := range []string{"(cg.A).Next", "(*cg.B).Next"} {
		found := false
		for name := range got {
			if strings.HasSuffix(name, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("Drive callees = %v, want a %s target from CHA", got, want)
		}
	}
	for _, e := range drive.Out {
		if !e.Dynamic {
			t.Errorf("Drive → %s resolved statically; interface dispatch must be dynamic", e.Callee.Name())
		}
	}
}

func TestReferenceEdge(t *testing.T) {
	g := loadFixture(t)
	register := node(t, g, "cg.Register")
	var ref *callgraph.Edge
	for _, e := range register.Out {
		if e.Callee.Name() == "cg.Even" {
			ref = e
		}
	}
	if ref == nil {
		t.Fatal("Register has no edge to Even for the function-value reference")
	}
	if !ref.Dynamic {
		t.Error("function-value reference edge must be dynamic")
	}
}

func TestSCCOrder(t *testing.T) {
	g := loadFixture(t)
	even := node(t, g, "cg.Even")
	odd := node(t, g, "cg.Odd")
	clock := node(t, g, "cg.clockInt")
	bNext := node(t, g, "B).Next")

	sccOf := make(map[*callgraph.Node]int)
	for i, scc := range g.SCCs() {
		for _, n := range scc {
			sccOf[n] = i
		}
	}
	if sccOf[even] != sccOf[odd] {
		t.Errorf("Even (scc %d) and Odd (scc %d) must share an SCC", sccOf[even], sccOf[odd])
	}
	if sccOf[clock] >= sccOf[bNext] {
		t.Errorf("callee-first order violated: clockInt scc %d not before (*B).Next scc %d", sccOf[clock], sccOf[bNext])
	}
}

// TestGoStatementEdges pins the edges a goroutine's first hop gets,
// for every way a go statement can name it: a direct named-method
// `go r.loop()`, a bound-method value handed to go (address-taken
// fan-out), a func-typed struct field, interface dispatch under go, and
// the calls and references inside a `go func(){…}` literal body, as
// well as the go statement's argument expressions. nilfacade and
// privtaint follow these edges like any other call.
func TestGoStatementEdges(t *testing.T) {
	g := loadFixture(t)
	cases := []struct {
		caller, callee string
		dynamic        bool
	}{
		{"Runner).Start", "Runner).loop", false},
		{"Runner).Detach", "Runner).report", true},
		{"Runner).Kick", "Runner).report", true},
		{"Runner).Poll", "(cg.A).Next", true},
		{"Runner).Poll", "(*cg.B).Next", true},
		{"cg.Litter", "cg.Observed", false},
		{"cg.Litter", "cg.Even", true}, // reference in the literal body
		{"cg.Litter", "cg.clockInt", false},
		{"cg.NewRunner", "Runner).report", true}, // field wiring, no go
	}
	for _, tc := range cases {
		caller := node(t, g, tc.caller)
		// A pair can carry several edges (a value reference plus the
		// call through it): the case must match one of them.
		found, total := false, 0
		for _, e := range caller.Out {
			if !strings.HasSuffix(e.Callee.Name(), tc.callee) {
				continue
			}
			total++
			if e.Dynamic == tc.dynamic {
				found = true
			}
		}
		if total == 0 {
			t.Errorf("%s has no edge to %s (callees: %v)", tc.caller, tc.callee, callees(caller))
			continue
		}
		if !found {
			t.Errorf("%s → %s: no edge with Dynamic=%v among %d", tc.caller, tc.callee, tc.dynamic, total)
		}
	}
}

// TestFuncValueCall pins the address-taken fan-out: Apply calls its
// func(int) bool parameter, so it gets a dynamic edge to Even (address-
// taken by Register) but not to Odd (same signature, never referenced
// as a value).
func TestFuncValueCall(t *testing.T) {
	g := loadFixture(t)
	apply := node(t, g, "cg.Apply")
	got := callees(apply)
	if !got["cg.Even"] {
		t.Errorf("Apply callees = %v, want cg.Even via address-taken fan-out", got)
	}
	if got["cg.Odd"] {
		t.Errorf("Apply callees = %v: Odd is never address-taken and must not get an edge", got)
	}
	for _, e := range apply.Out {
		if e.Callee.Name() == "cg.Even" && !e.Dynamic {
			t.Error("func-value fan-out edge must be dynamic")
		}
	}
}
