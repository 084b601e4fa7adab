package lint_test

import (
	"testing"

	"locwatch/internal/lint"
	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/loader"
)

// loadBenchPackage loads one fixture package outside the timed loop.
func loadBenchPackage(b *testing.B, path string) *loader.Package {
	b.Helper()
	pkg, err := loader.New(loader.SrcDir(fixtures)).Load(path)
	if err != nil {
		b.Fatalf("loading %s: %v", path, err)
	}
	return pkg
}

// benchAnalyzer times one flow-sensitive analyzer over its own fixture
// package — the densest findings-per-line input it will ever see, so
// these numbers bound the per-package cost on real code.
func benchAnalyzer(b *testing.B, a *analysis.Analyzer, path string) {
	b.Helper()
	pkg := loadBenchPackage(b, path)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lint.RunPackage(pkg, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNilFacade(b *testing.B)   { benchAnalyzer(b, lint.NilFacade, "nilfacade") }
func BenchmarkErrFlow(b *testing.B)     { benchAnalyzer(b, lint.ErrFlow, "errflow") }
func BenchmarkExhaustEnum(b *testing.B) { benchAnalyzer(b, lint.ExhaustEnum, "exhaustenum") }

// BenchmarkSuite runs the whole analyzer suite over one package, the
// unit of work `make lint` pays once per package in the module.
func BenchmarkSuite(b *testing.B) {
	pkg := loadBenchPackage(b, "nilfacade")
	all := lint.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range all {
			if _, err := lint.RunPackage(pkg, a); err != nil {
				b.Fatal(err)
			}
		}
	}
}
