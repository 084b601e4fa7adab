package core

import (
	"testing"

	"locwatch/internal/obs"
	"locwatch/internal/poi"
	"locwatch/internal/trace"
)

// countedParams returns default params whose builder and extractor
// point counters are fresh.
func countedParams() (p Params, builder, extractor *obs.Counter) {
	builder, extractor = new(obs.Counter), new(obs.Counter)
	p.Obs.Points = builder
	p.Extractor.Obs = poi.ExtractorObs{Points: extractor}
	return p, builder, extractor
}

// wantCounts fails unless both point counters read exactly n.
func wantCounts(t *testing.T, label string, builder, extractor *obs.Counter, n int) {
	t.Helper()
	if b, e := builder.Value(), extractor.Value(); b != uint64(n) || e != uint64(n) {
		t.Errorf("%s: builder counted %d and extractor %d of %d fixes", label, b, e, n)
	}
}

// TestPointCountersExactWhereFeedingStops holds the batched point
// counters exact at every method where feeding can stop: builders add
// their counts once per batch of fixes, so a path that drops a builder
// without flushing loses up to a batch.
func TestPointCountersExactWhereFeedingStops(t *testing.T) {
	pts := commuteTrace(21, 3, anchor, at(60, 4000), at(150, 2500))
	if len(pts) < 3000 {
		t.Fatalf("fixture has %d fixes, too few to cross a counter batch", len(pts))
	}

	p, bc, ec := countedParams()
	if _, err := BuildProfile(trace.NewSliceSource(pts), anchor, p); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, "BuildProfile", bc, ec, len(pts))

	p, bc, ec = countedParams()
	b, err := NewProfileBuilder(anchor, p)
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	feed := func(n int) {
		for _, pt := range pts[fed : fed+n] {
			if err := b.Feed(pt); err != nil {
				t.Fatal(err)
			}
		}
		fed += n
	}
	feed(1500)
	b.Peek()
	wantCounts(t, "Peek", bc, ec, fed)
	feed(1)
	b.Park()
	wantCounts(t, "Park", bc, ec, fed)
	feed(700)
	b.Profile()
	wantCounts(t, "Profile", bc, ec, fed)
	feed(3)
	b.Release()
	wantCounts(t, "Release", bc, ec, fed)

	// A watch whose detectors all breach stops being fed, and its
	// builder is dropped with Finish checking nothing. The detectors'
	// builder counts into the reference's counters.
	p, bc, ec = countedParams()
	ref, err := BuildProfile(trace.NewSliceSource(pts), anchor, p)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := NewCombinedDetector(ref)
	if err != nil {
		t.Fatal(err)
	}
	w := cd.Watch()
	for _, pt := range pts {
		if w.Done() {
			break
		}
		if err := w.Feed(pt); err != nil {
			t.Fatal(err)
		}
	}
	if !w.Done() {
		t.Fatal("fixture: the watch outlived its stream, so Finish would check and flush")
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	n := cd.Observed(PatternRegion).NumPoints()
	if n >= len(pts) || n%1024 == 0 {
		t.Fatalf("fixture: watch done after %d of %d fixes", n, len(pts))
	}
	wantCounts(t, "Watch done", bc, ec, len(pts)+n)
}
