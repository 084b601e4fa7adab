package core

import (
	"errors"
	"testing"
	"time"

	"locwatch/internal/stats"
	"locwatch/internal/trace"
)

// histEqual compares two histograms key-by-key for exact equality.
func histEqual(t *testing.T, label string, a, b *stats.Histogram) {
	t.Helper()
	if a.Len() != b.Len() || a.Total() != b.Total() {
		t.Fatalf("%s: shape differs: %d/%v vs %d/%v", label, a.Len(), a.Total(), b.Len(), b.Total())
	}
	for _, k := range a.Keys() {
		if a.Count(k) != b.Count(k) {
			t.Fatalf("%s: key %q: %v vs %v", label, k, a.Count(k), b.Count(k))
		}
	}
}

// TestPeekAndParkPreserveBatchEquivalence is the streaming service's
// core contract: interleaving Peek (mid-stream risk snapshots) and
// Park (eviction) with Feed must leave the finalized profile
// bit-identical to a plain batch BuildProfile over the same points.
func TestPeekAndParkPreserveBatchEquivalence(t *testing.T) {
	home, work, leisure := at(10, 800), at(200, 2600), at(320, 1500)
	pts := commuteTrace(3, 5, home, work, leisure)

	batch := mustProfile(t, pts)

	b, err := NewProfileBuilder(anchor, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := b.Feed(p); err != nil {
			t.Fatal(err)
		}
		switch i % 311 {
		case 17:
			// Mid-stream snapshot: must not perturb anything.
			snap := b.Peek()
			if snap.NumPoints() != i+1 {
				t.Fatalf("peek at %d: %d points", i, snap.NumPoints())
			}
		case 101:
			b.Park()
		}
	}
	streamed := b.Profile()
	b.Release()

	if streamed.NumPoints() != batch.NumPoints() {
		t.Fatalf("points: %d streamed vs %d batch", streamed.NumPoints(), batch.NumPoints())
	}
	if streamed.NumVisits() != batch.NumVisits() {
		t.Fatalf("visits: %d streamed vs %d batch", streamed.NumVisits(), batch.NumVisits())
	}
	if streamed.NumPlaces() != batch.NumPlaces() {
		t.Fatalf("places: %d streamed vs %d batch", streamed.NumPlaces(), batch.NumPlaces())
	}
	sp, bp := streamed.Places(), batch.Places()
	for i := range bp {
		if sp[i] != bp[i] {
			t.Fatalf("place %d differs: %+v vs %+v", i, sp[i], bp[i])
		}
	}
	histEqual(t, "region", streamed.Histogram(PatternRegion), batch.Histogram(PatternRegion))
	histEqual(t, "movement", streamed.Histogram(PatternMovement), batch.Histogram(PatternMovement))
}

// TestPeekDoesNotCloseOpenStay pins Peek's documented semantics: a
// stay the user is currently inside is not a visit yet, while
// Profile (the finalizer) flushes it.
func TestPeekDoesNotCloseOpenStay(t *testing.T) {
	b, err := NewProfileBuilder(anchor, Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	pts := newBuilder(at(40, 900), 9).stay(45 * time.Minute).pts
	for _, p := range pts {
		if err := b.Feed(p); err != nil {
			t.Fatal(err)
		}
	}
	if v := b.Peek().NumVisits(); v != 0 {
		t.Fatalf("peek flushed the open stay: %d visits", v)
	}
	if v := b.Profile().NumVisits(); v != 1 {
		t.Fatalf("finalize did not flush the open stay: %d visits", v)
	}
}

// TestPeekBeforeFirstFix pins Peek on a fresh builder: a streaming
// user can be scored before any fix arrives, so Peek must return an
// empty profile, not nil, and scoring it must report ErrNoProfile.
func TestPeekBeforeFirstFix(t *testing.T) {
	b, err := NewProfileBuilder(anchor, Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	empty := b.Peek()
	if empty == nil {
		t.Fatal("Peek returned nil before the first fix")
	}
	if empty.NumPoints() != 0 || empty.NumVisits() != 0 {
		t.Fatalf("fresh builder peeks %d points, %d visits", empty.NumPoints(), empty.NumVisits())
	}
	ref := mustProfile(t, commuteTrace(19, 4, anchor, at(60, 4000), at(150, 2500)))
	for _, pattern := range []Pattern{PatternRegion, PatternMovement} {
		if _, err := ref.Compare(empty, pattern); !errors.Is(err, ErrNoProfile) {
			t.Fatalf("%v: Compare against an empty peek = %v, want ErrNoProfile", pattern, err)
		}
	}
}

// TestBuildProfilePoolRoundTrip guards the pooled-scratch life cycle
// used by the streaming shards: build → park → keep feeding → final
// profile still matches a fresh batch run.
func TestBuildProfilePoolRoundTrip(t *testing.T) {
	home, work, leisure := at(77, 1200), at(150, 3000), at(260, 2100)
	pts := commuteTrace(9, 4, home, work, leisure)
	for rep := 0; rep < 3; rep++ {
		p, err := BuildProfile(trace.NewSliceSource(pts), anchor, Params{})
		if err != nil {
			t.Fatal(err)
		}
		q := mustProfile(t, pts)
		if p.NumPlaces() != q.NumPlaces() || p.NumVisits() != q.NumVisits() {
			t.Fatalf("rep %d: pooled rebuild diverged: %d/%d places, %d/%d visits",
				rep, p.NumPlaces(), q.NumPlaces(), p.NumVisits(), q.NumVisits())
		}
	}
}
