// Benchmarks regenerating every table and figure of the paper, one
// bench per driver. They run on the reduced Quick configuration (24
// users, 8 days) so `go test -bench=.` completes in minutes; pass the
// full scale through cmd/privacyeval for paper-size runs. A Lab
// memoizes what its drivers build, so each iteration runs its driver
// on a fresh Lab whose ground-truth profiles were built with the timer
// stopped: a bench times every replay and cache build its driver pays
// for on a cold Lab, apart from world construction and those profiles,
// and never a memoized result.
package locwatch_test

import (
	"sync"
	"testing"

	"locwatch/internal/experiments"
	"locwatch/internal/market"
)

var (
	reportOnce sync.Once
	mreport    *market.Report
	reportErr  error
)

// freshLab returns a cold Quick Lab with its ground-truth profiles
// built while the benchmark timer is stopped.
func freshLab(b *testing.B) *experiments.Lab {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	l, err := experiments.NewLab(experiments.Quick())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.Profiles(); err != nil {
		b.Fatal(err)
	}
	return l
}

func sharedMarketReport(b *testing.B) *market.Report {
	b.Helper()
	reportOnce.Do(func() {
		mreport, reportErr = experiments.MarketStudy(experiments.Quick())
	})
	if reportErr != nil {
		b.Fatal(reportErr)
	}
	return mreport
}

// BenchmarkSectionIIICounts regenerates the §III headline statistics:
// the full pipeline from market generation through manifest extraction,
// the per-app device protocol, and aggregation.
func BenchmarkSectionIIICounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.MarketStudy(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if r.Declaring != 1137 || r.Background != 102 {
			b.Fatalf("section III counts drifted: %+v", r)
		}
	}
}

// BenchmarkTableI regenerates Table I (provider usage of the 102
// background apps) from campaign observations.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.MarketStudy(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if r.TableI["fine&coarse"]["gps"] != 32 {
			b.Fatalf("Table I drifted: %+v", r.TableI)
		}
	}
}

// BenchmarkFigure1 regenerates the Figure 1 interval CDF.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.MarketStudy(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if cdf := r.IntervalECDF().At(10); cdf < 0.57 || cdf > 0.59 {
			b.Fatalf("Figure 1 knee drifted: %v", cdf)
		}
	}
}

// BenchmarkFigure2 regenerates the Table III / Figure 2 parameter
// sweep of the PoI extractor.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		r, err := experiments.Figure2(l)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 6 || r.Rows[0].PoIs == 0 {
			b.Fatalf("Figure 2 result degenerate: %+v", r.Rows)
		}
		l.Close()
	}
}

// BenchmarkFigure3 regenerates the PoI_total (3a) and PoI_sensitive
// (3b) frequency sweeps, which one driver computes.
func BenchmarkFigure3(b *testing.B) {
	rep := sharedMarketReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		r, err := experiments.Figure3(l, rep)
		if err != nil {
			b.Fatal(err)
		}
		if r.Rows[0].PoIs == 0 || r.Rows[0].Fraction < 0.99 || r.Rows[0].SensitiveTotal[2] == 0 {
			b.Fatalf("Figure 3 degenerate: %+v", r.Rows[0])
		}
		l.Close()
	}
}

// BenchmarkFigure4 regenerates the detection experiments, which one
// driver computes: the detection-speed CDFs from the trace start (4a)
// and from a random start (4b), the detection-count interval sweep
// (4c) and the faster-pattern comparison (4d).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		r, err := experiments.Figure4(l)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.FromStart) == 0 || len(r.RandomStart) == 0 || len(r.Sweep) == 0 {
			b.Fatal("Figure 4 empty")
		}
		if row := r.Sweep[0]; row.P2Faster+row.P1Faster+row.BothEqual == 0 {
			b.Fatal("Figure 4(d) empty")
		}
		l.Close()
	}
}

// BenchmarkFigure5 regenerates the entropy / degree-of-anonymity
// comparison with the historical-profile adversary.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		r, err := experiments.Figure5(l)
		if err != nil {
			b.Fatal(err)
		}
		if r.Profiles == 0 || len(r.Rows) == 0 {
			b.Fatal("Figure 5 empty")
		}
		l.Close()
	}
}

// BenchmarkCombinedDetector measures the paper's concluding
// recommendation, alert on whichever pattern fires first, run alone:
// on a cold Lab it builds the detection sweeps Figure 4 would share.
func BenchmarkCombinedDetector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		r, err := experiments.Combined(l)
		if err != nil {
			b.Fatal(err)
		}
		if r.Rows[0].DetectedCombined == 0 {
			b.Fatal("combined detector fired for nobody")
		}
		l.Close()
	}
}

// BenchmarkAblationExtractor compares the buffer extractor against the
// stay-point baseline.
func BenchmarkAblationExtractor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		r, err := experiments.AblationExtractor(l)
		if err != nil {
			b.Fatal(err)
		}
		if r.Rows[0].Buffer == 0 {
			b.Fatal("extractor ablation degenerate")
		}
		l.Close()
	}
}

// BenchmarkAblationMitigation measures the defense suite.
func BenchmarkAblationMitigation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		r, err := experiments.AblationMitigation(l)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("mitigation ablation empty")
		}
		l.Close()
	}
}

// BenchmarkAblationWeighting compares the adversary's posterior
// weightings (Formula 2 literal vs p-value).
func BenchmarkAblationWeighting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		if _, err := experiments.AblationWeighting(l); err != nil {
			b.Fatal(err)
		}
		l.Close()
	}
}

// BenchmarkAblationCloaking measures the k-anonymity trusted-server
// baseline over the aligned population.
func BenchmarkAblationCloaking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		r, err := experiments.AblationCloaking(l)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 3 {
			b.Fatal("cloaking ablation degenerate")
		}
		l.Close()
	}
}

// BenchmarkAblationTracking measures the Hoh-style time-to-confusion
// comparison across release policies.
func BenchmarkAblationTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		r, err := experiments.AblationTracking(l)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 4 {
			b.Fatal("tracking ablation degenerate")
		}
		l.Close()
	}
}

// BenchmarkAblationTail compares the chi-square tail conventions.
func BenchmarkAblationTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		if _, err := experiments.AblationTail(l); err != nil {
			b.Fatal(err)
		}
		l.Close()
	}
}

// BenchmarkFullSuite is the end-to-end artifact regeneration: a cold
// lab per iteration (no shared caches), the market study, every
// figure, the combined detector, and the extractor/mitigation
// ablations — the wall-clock number the README's perf section quotes.
// Unlike the per-artifact benches above, it includes world
// construction and the shared profile-building passes.
func BenchmarkFullSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := experiments.NewLab(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := experiments.MarketStudy(l.Config())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure2(l); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure3(l, rep); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure4(l); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure5(l); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Combined(l); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.AblationExtractor(l); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.AblationMitigation(l); err != nil {
			b.Fatal(err)
		}
		l.Close()
	}
}
