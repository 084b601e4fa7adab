package poi

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/trace"
)

// quickCfg is the shared testing/quick configuration: a pinned Rand,
// because the package default seeds from wall-clock time and a flaky
// property test is worse than a smaller fixed corpus — failures must
// reproduce. Widen the corpus by changing MaxCount, not by unpinning.
func quickCfg(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(7))}
}

// randomItinerary builds a random but realistic day: alternating walks
// and stays between random venues.
func randomItinerary(seed int64) *builder {
	rng := rand.New(rand.NewSource(seed))
	b := newBuilder(origin, time.Second, seed)
	legs := 2 + rng.Intn(6)
	for i := 0; i < legs; i++ {
		dst := placeAt(rng.Float64()*360, 500+rng.Float64()*4000)
		b.walk(dst, 1+rng.Float64()*12)
		b.stay(time.Duration(3+rng.Intn(50))*time.Minute, 5)
	}
	return b
}

func TestPropertyStaysOrderedAndDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		b := randomItinerary(seed % 1000)
		stays, err := Extract(b.source(), DefaultParams())
		if err != nil {
			return false
		}
		for i, s := range stays {
			if s.Exit.Before(s.Enter) {
				return false
			}
			if s.Duration() < DefaultParams().MinVisit {
				return false
			}
			if i > 0 && s.Enter.Before(stays[i-1].Exit) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(30)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStaysWithinTraceBounds(t *testing.T) {
	f := func(seed int64) bool {
		b := randomItinerary(seed % 1000)
		if len(b.pts) == 0 {
			return true
		}
		bbox := geo.NewBoundingBox(func() []geo.LatLon {
			out := make([]geo.LatLon, len(b.pts))
			for i, p := range b.pts {
				out[i] = p.Pos
			}
			return out
		}()).Expand(100)
		first, last := b.pts[0].T, b.pts[len(b.pts)-1].T
		stays, err := Extract(b.source(), DefaultParams())
		if err != nil {
			return false
		}
		for _, s := range stays {
			if !bbox.Contains(s.Pos) {
				return false
			}
			if s.Enter.Before(first) || s.Exit.After(last) {
				return false
			}
			if s.NPoints <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(30)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBothExtractorsAgreeOnStayCountsRoughly(t *testing.T) {
	// On random clean itineraries the buffer extractor and the
	// stay-point baseline never differ by more than the number of legs.
	f := func(seed int64) bool {
		b := randomItinerary(seed % 1000)
		buf, err := Extract(b.source(), DefaultParams())
		if err != nil {
			return false
		}
		sp, err := extractStayPoints(trace.NewSliceSource(b.pts), DefaultParams())
		if err != nil {
			return false
		}
		diff := len(buf) - len(sp)
		if diff < 0 {
			diff = -diff
		}
		return diff <= 3
	}
	if err := quick.Check(f, quickCfg(30)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCanonicalizerConservesVisits(t *testing.T) {
	// Total visits across places equals observed stays; dwell sums match.
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := NewCanonicalizer(origin, 75)
		if err != nil {
			return false
		}
		n := int(nRaw)%40 + 1
		ts := start
		var wantDwell time.Duration
		for i := 0; i < n; i++ {
			pos := placeAt(float64(rng.Intn(8))*45, float64(1+rng.Intn(5))*1000)
			dwell := time.Duration(10+rng.Intn(120)) * time.Minute
			c.Observe(stayAt(pos, ts, dwell))
			wantDwell += dwell
			ts = ts.Add(dwell + time.Hour)
		}
		visits, dwell := 0, time.Duration(0)
		for _, p := range c.Places() {
			visits += p.Visits
			dwell += p.Dwell
		}
		return visits == n && dwell == wantDwell && len(c.Visits()) == n
	}
	if err := quick.Check(f, quickCfg(50)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySamplingNeverAddsStays(t *testing.T) {
	// Downsampling a trace can shift stay boundaries and fragment one
	// full-rate stay into several (a sparse stream moves the buffer
	// windows' centroids, so a long stay can re-trigger entry more than
	// once — seed 266 at a 101 s interval splits one stay into three),
	// but it must not manufacture stays wholesale. Allow per-stay
	// fragmentation; forbid unbounded invention.
	f := func(seed int64, ivRaw uint8) bool {
		b := randomItinerary(seed % 1000)
		interval := time.Duration(int(ivRaw)%600+1) * time.Second
		full, err := Extract(b.source(), DefaultParams())
		if err != nil {
			return false
		}
		sampled, err := Extract(trace.NewSampler(trace.NewSliceSource(b.pts), interval, 0), DefaultParams())
		if err != nil {
			return false
		}
		return len(sampled) <= 3*len(full)+3
	}
	if err := quick.Check(f, quickCfg(30)); err != nil {
		t.Fatal(err)
	}
}

// randomStayTrace builds a trace over every path of the extractor:
// dense (1–5 s) and sparse (30 s–10 min) sampling, stays of any
// length with noise up to 40 m, moves shorter and longer than the
// radius, and gaps both within and beyond the default MaxGap.
func randomStayTrace(seed int64) []trace.Point {
	rng := rand.New(rand.NewSource(seed))
	b := newBuilder(origin, time.Second, seed)
	for range 3 + rng.Intn(10) {
		if rng.Intn(2) == 0 {
			b.rate = time.Duration(1+rng.Intn(5)) * time.Second
		} else {
			b.rate = time.Duration(30+rng.Intn(571)) * time.Second
		}
		switch rng.Intn(4) {
		case 0: // a hop around the radius: 10–300 m
			b.walk(geo.Destination(b.pos, rng.Float64()*360, 10+rng.Float64()*290), 0.5+rng.Float64()*3)
		case 1: // a trip across town
			b.walk(geo.Destination(b.pos, rng.Float64()*360, 500+rng.Float64()*3000), 1+rng.Float64()*12)
		case 2:
			if rng.Intn(2) == 0 {
				b.gap(13*time.Hour + time.Duration(rng.Intn(3600))*time.Second)
			} else {
				b.gap(time.Duration(rng.Intn(7200)) * time.Second)
			}
		}
		b.stay(time.Duration(rng.Intn(45*60))*time.Second, rng.Float64()*40)
	}
	return b.pts
}

// TestPropertyMinVisitOnlyFilters checks the invariant Figure 2's
// single replay relies on: at one radius, the stays extracted at a
// visit time m are exactly the stays extracted at any shorter visit
// time whose Duration() reaches m.
func TestPropertyMinVisitOnlyFilters(t *testing.T) {
	visits := []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute, 20 * time.Minute, 30 * time.Minute}
	dropped, kept := 0, 0
	for seed := range int64(200) {
		pts := randomStayTrace(seed)
		for _, radius := range []float64{50, 100} {
			stays := make([][]StayPoint, len(visits))
			for i, v := range visits {
				var err error
				stays[i], err = Extract(trace.NewSliceSource(pts), Params{Radius: radius, MinVisit: v})
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := range visits {
				for j := i + 1; j < len(visits); j++ {
					var filtered []StayPoint
					for _, s := range stays[i] {
						if s.Duration() >= visits[j] {
							filtered = append(filtered, s)
						}
					}
					dropped += len(stays[i]) - len(filtered)
					kept += len(filtered)
					if !slices.Equal(filtered, stays[j]) {
						t.Fatalf("seed %d, radius %v: MinVisit %v gives %d stays, MinVisit %v filtered to %v gives %d:\n%v\n%v",
							seed, radius, visits[j], len(stays[j]), visits[i], visits[j], len(filtered), stays[j], filtered)
					}
				}
			}
		}
	}
	// The corpus must exercise the filter both ways.
	if dropped == 0 || kept == 0 {
		t.Fatalf("vacuous corpus: %d stays dropped, %d kept", dropped, kept)
	}
	t.Logf("%d stays dropped by a longer visit time, %d kept", dropped, kept)
}
