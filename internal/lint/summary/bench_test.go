package summary_test

import (
	"testing"

	"locwatch/internal/lint/callgraph"
	"locwatch/internal/lint/loader"
	"locwatch/internal/lint/summary"
)

// BenchmarkTaintSummaries times the full bottom-up summary pass —
// boolean facts plus the location-taint fixpoint — over the taint
// fixture module, the densest source/sanitizer/sink mix per line the
// analysis will see. Graph construction happens outside the loop;
// callgraph's bench_test times it on the real module.
func BenchmarkTaintSummaries(b *testing.B) {
	ld := loader.New(loader.SrcDir("testdata/src"))
	pkg, err := ld.Load("taintfix")
	if err != nil {
		b.Fatalf("loading taintfix: %v", err)
	}
	pkgs := []*loader.Package{pkg}
	for _, dep := range []string{"taintfix/geo", "taintfix/privlog", "taintfix/anonymize"} {
		p := ld.Package(dep)
		if p == nil {
			b.Fatalf("%s was not loaded as a dependency", dep)
		}
		pkgs = append(pkgs, p)
	}
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
