package callgraph_test

import (
	"testing"

	"locwatch/internal/lint/callgraph"
	"locwatch/internal/lint/loader"
	"locwatch/internal/lint/summary"
)

// loadModule type-checks the whole locwatch module once (outside every
// timed loop) so the benchmarks measure graph construction and the
// summary pass alone — the marginal cost the interprocedural tier adds
// to `make lint` on top of loading, which the older loader benchmarks
// already cover.
func loadModule(b *testing.B) []*loader.Package {
	b.Helper()
	root, err := loader.ModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	mod, err := loader.GoListDeps(root, "./...")
	if err != nil {
		b.Fatal(err)
	}
	_, pkgs, err := mod.Load()
	if err != nil {
		b.Fatal(err)
	}
	return pkgs
}

// BenchmarkBuildGraph times whole-module call-graph construction: node
// indexing, static resolution, CHA fan-out, reference edges.
func BenchmarkBuildGraph(b *testing.B) {
	pkgs := loadModule(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := callgraph.Build(pkgs)
		if len(g.Nodes()) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkSummaries times the bottom-up function-summary fixpoint
// over a prebuilt whole-module graph.
func BenchmarkSummaries(b *testing.B) {
	pkgs := loadModule(b)
	g := callgraph.Build(pkgs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := summary.Compute(g)
		if s.OfNode(g.Nodes()[0]) == nil {
			b.Fatal("missing facts")
		}
	}
}

// BenchmarkSCC times the Tarjan condensation on a fresh graph each
// iteration (SCCs memoizes per graph).
func BenchmarkSCC(b *testing.B) {
	pkgs := loadModule(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := callgraph.Build(pkgs)
		if len(g.SCCs()) == 0 {
			b.Fatal("no SCCs")
		}
	}
}
