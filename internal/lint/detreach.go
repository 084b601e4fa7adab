package lint

import (
	"strings"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/callgraph"
	"locwatch/internal/lint/summary"
)

// DetReach turns the DESIGN §7/§8 determinism promise into a
// compile-time gate: no function reachable from the deterministic
// pipeline — every function of the simulation packages (mobility,
// trace, plt, experiments) plus poi extraction — may transitively read
// the wall clock (time.Now/Since/Until) or ambient randomness (the
// global math/rand and crypto/rand functions). Every Table III /
// Figure 2–5 number depends on traces being reproducible from a seed,
// so a clock read inside those packages is flagged even when nothing
// calls it yet, and the analyzer follows the whole-program call graph
// (internal/lint/callgraph, CHA over interface dispatch), so a helper
// three packages away that sneaks in a time.Now() breaks the build the
// moment a trace or figure path can reach it. Simulated time must come
// from injected anchors (mobility.Config.Start, android.NewDevice's
// start argument).
//
// Functions in observe-only `obs` packages are exempt (DESIGN §8: the
// instrumentation layer reads real time but changes no emitted bit),
// and the exemption does not propagate — a clock call outside obs is
// still flagged even when the path to it goes through obs. Diagnostics
// land on the offending call site and quote one shortest entry-point
// path so the finding is explainable; `cmd/locwatchlint -graph` dumps
// the surrounding graph for deeper digging. Seeded generators
// (rand.New(rand.NewSource(seed))) and time arithmetic on supplied
// timestamps are, as ever, fine. Requires a whole-program Pass.Program;
// without one the analyzer is a no-op.
var DetReach = &analysis.Analyzer{
	Name: "detreach",
	Doc: "flags wall-clock or ambient-randomness reads in any function reachable from the " +
		"deterministic pipeline entry points (trace emission, figure paths, poi extraction)",
	Run: runDetReach,
}

// detPackages names the deterministic simulation packages: every
// function in them is an entry point.
var detPackages = map[string]bool{
	"mobility":    true,
	"trace":       true,
	"plt":         true,
	"experiments": true,
}

// detRootSpec selects further entry points by package name, receiver
// type name and function name; "*" matches any exported name.
type detRootSpec struct {
	pkg, recv, fn string
}

var detRootSpecs = []detRootSpec{
	{"poi", "", "Extract"},
	{"poi", "Extractor", "*"},
}

func isDetRoot(n *callgraph.Node) bool {
	if n.Func.Pkg() == nil {
		return false
	}
	if detPackages[n.Func.Pkg().Name()] {
		return true
	}
	for _, spec := range detRootSpecs {
		if spec.matches(n) {
			return true
		}
	}
	return false
}

func (s detRootSpec) matches(n *callgraph.Node) bool {
	fn := n.Func
	if fn.Pkg().Name() != s.pkg || n.RecvName() != s.recv {
		return false
	}
	if s.fn == "*" {
		return fn.Exported()
	}
	return fn.Name() == s.fn
}

// detRootsAndReach lazily computes (and memoizes on the Program, so
// the per-package passes of one run share it) the entry-point node set
// and the forward-reachable closure.
func (p *Program) detRootsAndReach() ([]*callgraph.Node, map[*callgraph.Node]bool) {
	if !p.detReady {
		for _, n := range p.Graph.Nodes() {
			if isDetRoot(n) {
				p.detRoots = append(p.detRoots, n)
			}
		}
		p.detReach = p.Graph.Reachable(p.detRoots)
		p.detReady = true
	}
	return p.detRoots, p.detReach
}

func runDetReach(pass *analysis.Pass) error {
	prog := program(pass)
	if prog == nil {
		return nil // no whole-program view: nothing sound to report
	}
	roots, reach := prog.detRootsAndReach()
	if len(roots) == 0 {
		return nil
	}
	for _, n := range prog.Graph.PackageNodes(pass.Pkg) {
		if !reach[n] || summary.ObserveOnly(n.Func.Pkg()) {
			continue
		}
		for _, ext := range n.External {
			src := summary.ClockSource(ext.Fn)
			if src == "" {
				continue
			}
			pass.Reportf(ext.Pos,
				"call to %s is reachable from deterministic entry %s; inject the simulation clock or a seeded generator instead (path: %s)",
				src, rootName(prog, roots, n), detPath(prog, roots, n))
		}
	}
	return nil
}

// rootName names the entry point a shortest witness path starts from.
func rootName(p *Program, roots []*callgraph.Node, n *callgraph.Node) string {
	if path := p.Graph.PathFrom(roots, n); len(path) > 0 {
		return path[0].Name()
	}
	return "<unknown>"
}

// detPath renders a shortest entry→function call chain for the
// diagnostic.
func detPath(p *Program, roots []*callgraph.Node, n *callgraph.Node) string {
	path := p.Graph.PathFrom(roots, n)
	if len(path) == 0 {
		return n.Name()
	}
	names := make([]string, len(path))
	for i, hop := range path {
		names[i] = hop.Name()
	}
	return strings.Join(names, " → ")
}
