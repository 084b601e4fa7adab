package poi

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/trace"
)

var (
	origin = geo.LatLon{Lat: 39.9042, Lon: 116.4074}
	start  = time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
)

// builder assembles synthetic traces for extractor tests: walks between
// positions and noisy stays at positions, sampled at a fixed rate.
type builder struct {
	pts  []trace.Point
	now  time.Time
	pos  geo.LatLon
	rate time.Duration
	rng  *rand.Rand
}

func newBuilder(at geo.LatLon, rate time.Duration, seed int64) *builder {
	return &builder{now: start, pos: at, rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// stay emits noisy fixes around the current position for dur.
func (b *builder) stay(dur time.Duration, noise float64) *builder {
	end := b.now.Add(dur)
	for !b.now.After(end) {
		p := b.pos
		if noise > 0 {
			p = geo.Destination(p, b.rng.Float64()*360, b.rng.Float64()*noise)
		}
		b.pts = append(b.pts, trace.Point{Pos: p, T: b.now})
		b.now = b.now.Add(b.rate)
	}
	return b
}

// walk moves to dst at speed (m/s), emitting fixes along the way.
func (b *builder) walk(dst geo.LatLon, speed float64) *builder {
	total := geo.Distance(b.pos, dst)
	if total == 0 {
		return b
	}
	steps := int(total / (speed * b.rate.Seconds()))
	for i := 1; i <= steps; i++ {
		p := geo.Interpolate(b.pos, dst, float64(i)/float64(steps+1))
		b.pts = append(b.pts, trace.Point{Pos: p, T: b.now})
		b.now = b.now.Add(b.rate)
	}
	b.pos = dst
	b.pts = append(b.pts, trace.Point{Pos: dst, T: b.now})
	b.now = b.now.Add(b.rate)
	return b
}

// gap advances time without emitting fixes.
func (b *builder) gap(dur time.Duration) *builder {
	b.now = b.now.Add(dur)
	return b
}

func (b *builder) source() trace.Source { return trace.NewSliceSource(b.pts) }

func placeAt(bearing, dist float64) geo.LatLon {
	return geo.Destination(origin, bearing, dist)
}

func TestExtractorParamsValidation(t *testing.T) {
	emit := func(StayPoint) {}
	for _, r := range []float64{0, -1, math.NaN(), math.Inf(-1)} {
		if _, err := NewExtractor(Params{Radius: r, MinVisit: time.Minute}, emit); err == nil {
			t.Errorf("radius %v accepted", r)
		}
		if _, err := NewStayPointExtractor(Params{Radius: r, MinVisit: time.Minute}, emit); err == nil {
			t.Errorf("stay-point extractor: radius %v accepted", r)
		}
	}
	// An infinite radius is one stay per trace, not an error.
	if _, err := NewExtractor(Params{Radius: math.Inf(1), MinVisit: time.Minute}, emit); err != nil {
		t.Errorf("radius +Inf rejected: %v", err)
	}
	if _, err := NewStayPointExtractor(Params{Radius: math.Inf(1), MinVisit: time.Minute}, emit); err != nil {
		t.Errorf("stay-point extractor: radius +Inf rejected: %v", err)
	}
	if _, err := NewExtractor(Params{Radius: 50, MinVisit: 0}, emit); err == nil {
		t.Error("zero min visit accepted")
	}
	if _, err := NewExtractor(Params{Radius: 50, MinVisit: time.Minute, Window: -1}, emit); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := NewExtractor(DefaultParams(), nil); err == nil {
		t.Error("nil emit accepted")
	}
}

func TestExtractorSingleStay(t *testing.T) {
	home := origin
	work := placeAt(90, 3000)
	b := newBuilder(home, time.Second, 1).
		stay(20*time.Minute, 5).
		walk(work, 1.4)
	stays, err := Extract(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 1 {
		t.Fatalf("extracted %d stays, want 1", len(stays))
	}
	s := stays[0]
	if d := geo.Distance(s.Pos, home); d > 25 {
		t.Errorf("stay centroid %v m from home", d)
	}
	if s.Duration() < 15*time.Minute || s.Duration() > 25*time.Minute {
		t.Errorf("stay duration %v, want ~20 min", s.Duration())
	}
}

func TestExtractorShortStopIgnored(t *testing.T) {
	// A 3-minute stop (traffic light, bus stop) must not become a PoI
	// with a 10-minute MinVisit.
	a := origin
	mid := placeAt(90, 2000)
	end := placeAt(90, 4000)
	b := newBuilder(a, time.Second, 2).
		stay(15*time.Minute, 5).
		walk(mid, 1.4).
		stay(3*time.Minute, 5).
		walk(end, 1.4).
		stay(15*time.Minute, 5)
	stays, err := Extract(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 2 {
		for _, s := range stays {
			t.Logf("  %v", s)
		}
		t.Fatalf("extracted %d stays, want 2 (short stop must be skipped)", len(stays))
	}
	if geo.Distance(stays[0].Pos, a) > 30 || geo.Distance(stays[1].Pos, end) > 30 {
		t.Error("stay centroids off")
	}
}

func TestExtractorMultipleVisitsSamePlace(t *testing.T) {
	home := origin
	work := placeAt(45, 5000)
	b := newBuilder(home, time.Second, 3).
		stay(30*time.Minute, 5).
		walk(work, 10).
		stay(30*time.Minute, 5).
		walk(home, 10).
		stay(30*time.Minute, 5)
	stays, err := Extract(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 3 {
		t.Fatalf("extracted %d stays, want 3", len(stays))
	}
	if geo.Distance(stays[0].Pos, stays[2].Pos) > 30 {
		t.Error("first and last stay should be the same place")
	}
	if geo.Distance(stays[1].Pos, work) > 30 {
		t.Error("middle stay should be at work")
	}
	// Stays are time ordered and non-overlapping.
	for i := 1; i < len(stays); i++ {
		if stays[i].Enter.Before(stays[i-1].Exit) {
			t.Error("stays overlap")
		}
	}
}

func TestExtractorTrailingStayFlushed(t *testing.T) {
	b := newBuilder(origin, time.Second, 4).stay(15*time.Minute, 5)
	stays, err := Extract(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 1 {
		t.Fatalf("trailing stay not flushed: %d stays", len(stays))
	}
}

func TestExtractorPureMovementNoStays(t *testing.T) {
	b := newBuilder(origin, time.Second, 5).walk(placeAt(90, 10000), 1.4)
	stays, err := Extract(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 0 {
		t.Fatalf("pure movement produced %d stays", len(stays))
	}
}

func TestExtractorSparseSampling(t *testing.T) {
	// At a 600 s access interval, a 2-hour stay still yields a PoI, but
	// short stays vanish — the frequency effect behind Figure 3.
	home := origin
	cafe := placeAt(90, 3000)
	b := newBuilder(home, time.Second, 6).
		stay(2*time.Hour, 5).
		walk(cafe, 1.4).
		stay(12*time.Minute, 5). // shorter than the sampling interval
		walk(placeAt(90, 6000), 1.4)
	full, err := Extract(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 2 {
		t.Fatalf("full rate found %d stays, want 2", len(full))
	}
	sparse, err := Extract(trace.NewSampler(trace.NewSliceSource(b.pts), 600*time.Second, 0), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(sparse) != 1 {
		t.Fatalf("sparse rate found %d stays, want only the long one", len(sparse))
	}
	if geo.Distance(sparse[0].Pos, home) > 60 {
		t.Errorf("sparse stay %v m from home", geo.Distance(sparse[0].Pos, home))
	}
}

func TestExtractorFrequencyMonotonicity(t *testing.T) {
	// More aggressive sampling can only lose PoIs, never gain many:
	// the count at 60 s must be ≤ count at 1 s (the Figure 3(a) trend).
	b := newBuilder(origin, time.Second, 7)
	cur := origin
	for i := 0; i < 6; i++ {
		next := placeAt(float64(i)*60, 2500)
		b.walk(next, 1.4).stay(25*time.Minute, 5)
		cur = next
	}
	_ = cur
	counts := map[time.Duration]int{}
	for _, interval := range []time.Duration{0, 10 * time.Second, 60 * time.Second, 600 * time.Second} {
		stays, err := Extract(trace.NewSampler(trace.NewSliceSource(b.pts), interval, 0), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		counts[interval] = len(stays)
	}
	if counts[0] != 6 {
		t.Fatalf("full rate found %d stays, want 6", counts[0])
	}
	if counts[10*time.Second] > counts[0] || counts[60*time.Second] > counts[10*time.Second] {
		t.Fatalf("PoI count not monotone in interval: %v", counts)
	}
}

func TestExtractorGapBreaksStay(t *testing.T) {
	// A 13 h gap (e.g. phone off) inside a stay closes it; the stay
	// must not span the gap.
	b := newBuilder(origin, time.Second, 8).
		stay(20*time.Minute, 5).
		gap(13*time.Hour).
		stay(20*time.Minute, 5)
	stays, err := Extract(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 2 {
		t.Fatalf("extracted %d stays, want 2 (gap must split)", len(stays))
	}
	for _, s := range stays {
		if s.Duration() > time.Hour {
			t.Fatalf("stay spans the gap: %v", s.Duration())
		}
	}
}

func TestExtractorOutOfOrderRejected(t *testing.T) {
	ex, err := NewExtractor(DefaultParams(), func(StayPoint) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Feed(trace.Point{Pos: origin, T: start}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Feed(trace.Point{Pos: origin, T: start.Add(-time.Second)}); err == nil {
		t.Fatal("out-of-order point accepted")
	}
}

func TestExtractorReuseAfterFlush(t *testing.T) {
	var stays []StayPoint
	ex, err := NewExtractor(DefaultParams(), func(s StayPoint) { stays = append(stays, s) })
	if err != nil {
		t.Fatal(err)
	}
	feed := func(b *builder) {
		for _, p := range b.pts {
			if err := ex.Feed(p); err != nil {
				t.Fatal(err)
			}
		}
		ex.Flush()
	}
	feed(newBuilder(origin, time.Second, 9).stay(15*time.Minute, 5))
	// Second stream starts earlier in absolute time: legal after Flush.
	feed(newBuilder(placeAt(90, 2000), time.Second, 10).stay(15*time.Minute, 5))
	if len(stays) != 2 {
		t.Fatalf("reuse after Flush: %d stays, want 2", len(stays))
	}
}

func TestExtractorRadiusSweepMorePoIsWithLargerRadius(t *testing.T) {
	// Table III trend: under the same visiting time, a larger radius
	// extracts at least as many PoIs.
	b := newBuilder(origin, time.Second, 11)
	for i := 0; i < 5; i++ {
		b.walk(placeAt(float64(i*72), 2000), 1.4).stay(12*time.Minute, 20)
	}
	p50 := Params{Radius: 50, MinVisit: 10 * time.Minute}
	p100 := Params{Radius: 100, MinVisit: 10 * time.Minute}
	s50, err := Extract(trace.NewSliceSource(b.pts), p50)
	if err != nil {
		t.Fatal(err)
	}
	s100, err := Extract(trace.NewSliceSource(b.pts), p100)
	if err != nil {
		t.Fatal(err)
	}
	if len(s100) < len(s50) {
		t.Fatalf("radius 100 found %d < radius 50's %d", len(s100), len(s50))
	}
}

func TestExtractorVisitTimeSweepFewerPoIsWithLongerMinVisit(t *testing.T) {
	// Table III trend: longer visiting time extracts fewer PoIs.
	b := newBuilder(origin, time.Second, 12)
	dwells := []time.Duration{12 * time.Minute, 22 * time.Minute, 35 * time.Minute, 15 * time.Minute}
	for i, d := range dwells {
		b.walk(placeAt(float64(i*90), 2500), 1.4).stay(d, 5)
	}
	var counts []int
	for _, mv := range []time.Duration{10 * time.Minute, 20 * time.Minute, 30 * time.Minute} {
		stays, err := Extract(trace.NewSliceSource(b.pts), Params{Radius: 50, MinVisit: mv})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(stays))
	}
	if counts[0] != 4 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("counts by min visit = %v, want [4 2 1]", counts)
	}
}

func BenchmarkExtractorFullRate(b *testing.B) {
	bd := newBuilder(origin, time.Second, 13)
	for i := 0; i < 4; i++ {
		bd.walk(placeAt(float64(i*90), 3000), 1.4).stay(20*time.Minute, 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(trace.NewSliceSource(bd.pts), DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}
