package confusion

import (
	"testing"
	"time"

	"locwatch/internal/anonymize"
	"locwatch/internal/geo"
	"locwatch/internal/trace"
)

var (
	anchor = geo.LatLon{Lat: 39.9042, Lon: 116.4074}
	cStart = time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
)

// alignedWorld builds an aligned matrix from explicit per-user,
// per-tick positions.
func alignedWorld(t *testing.T, perUser [][]geo.LatLon) *anonymize.AlignedPositions {
	t.Helper()
	interval := time.Minute
	sources := make([]trace.Source, len(perUser))
	ticks := 0
	for u, path := range perUser {
		var pts []trace.Point
		for i, pos := range path {
			pts = append(pts, trace.Point{Pos: pos, T: cStart.Add(time.Duration(i) * interval)})
		}
		if len(path) > ticks {
			ticks = len(path)
		}
		sources[u] = trace.NewSliceSource(pts)
	}
	a, err := anonymize.Align(sources, cStart, cStart.Add(time.Duration(ticks+1)*interval), interval)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func pathAt(bearing, dist float64, n int) []geo.LatLon {
	base := geo.Destination(anchor, bearing, dist)
	out := make([]geo.LatLon, n)
	for i := range out {
		out[i] = geo.Destination(base, 90, float64(i)*10)
	}
	return out
}

func TestParamsValidation(t *testing.T) {
	if _, err := (Params{FollowRadius: -1}).withDefaults(); err == nil {
		t.Fatal("negative radius accepted")
	}
	if _, err := (Params{MinCandidates: -2}).withDefaults(); err == nil {
		t.Fatal("negative candidates accepted")
	}
	p, err := (Params{}).withDefaults()
	if err != nil || p.FollowRadius != 250 || p.MinCandidates != 1 {
		t.Fatalf("defaults: %+v, %v", p, err)
	}
}

func TestLoneUserNeverConfused(t *testing.T) {
	a := alignedWorld(t, [][]geo.LatLon{
		pathAt(0, 0, 30),
		pathAt(180, 9000, 30), // far away, never within radius
	})
	r, err := TimeToConfusion(a, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Confusions != 0 {
		t.Fatalf("confusions = %d", r.Confusions)
	}
	if r.MeanTimeToConfusion() != r.Tracked {
		t.Fatal("unconfused user's TTC should be the whole tracked span")
	}
	if r.Tracked == 0 {
		t.Fatal("no tracked time")
	}
}

func TestCoLocatedUsersConfuseImmediately(t *testing.T) {
	a := alignedWorld(t, [][]geo.LatLon{
		pathAt(0, 0, 30),
		pathAt(0, 50, 30), // within 250 m the whole time
	})
	r, err := TimeToConfusion(a, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Confusions < 25 {
		t.Fatalf("expected near-constant confusion, got %d events", r.Confusions)
	}
	if r.MeanTimeToConfusion() > 2*time.Minute {
		t.Fatalf("mean TTC %v too long for co-located users", r.MeanTimeToConfusion())
	}
}

func TestCrossingPathsConfusedOnce(t *testing.T) {
	// User 1 is far except for ticks 10-12 when they pass within 100 m.
	path0 := pathAt(0, 0, 30)
	path1 := pathAt(180, 8000, 30)
	for i := 10; i <= 12; i++ {
		path1[i] = geo.Destination(path0[i], 45, 100)
	}
	a := alignedWorld(t, [][]geo.LatLon{path0, path1})
	r, err := TimeToConfusion(a, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Confusions != 3 {
		t.Fatalf("confusions = %d, want 3 (one per overlapping tick)", r.Confusions)
	}
	// The first segment runs from acquisition to the encounter.
	if r.Segments[0] < 8*time.Minute || r.Segments[0] > 12*time.Minute {
		t.Fatalf("first segment %v, want ~10 min", r.Segments[0])
	}
}

func TestMinCandidatesThreshold(t *testing.T) {
	// Two others nearby: confusion at MinCandidates 1 and 2, not at 3.
	a := alignedWorld(t, [][]geo.LatLon{
		pathAt(0, 0, 10),
		pathAt(0, 40, 10),
		pathAt(0, 80, 10),
	})
	for _, tc := range []struct {
		min  int
		want bool
	}{{1, true}, {2, true}, {3, false}} {
		r, err := TimeToConfusion(a, 0, Params{FollowRadius: 250, MinCandidates: tc.min})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Confusions > 0; got != tc.want {
			t.Fatalf("min=%d: confused=%v, want %v", tc.min, got, tc.want)
		}
	}
}

func TestGapsResetWithoutConfusion(t *testing.T) {
	// User 0 observable for ticks 0-9 only; afterwards unknown.
	short := pathAt(0, 0, 10)
	long := pathAt(180, 9000, 30)
	a := alignedWorld(t, [][]geo.LatLon{short, long})
	r, err := TimeToConfusion(a, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Confusions != 0 {
		t.Fatal("gap counted as confusion")
	}
	if r.Tracked > 15*time.Minute {
		t.Fatalf("tracked %v exceeds observable span", r.Tracked)
	}
}

func TestPopulation(t *testing.T) {
	a := alignedWorld(t, [][]geo.LatLon{
		pathAt(0, 0, 20),
		pathAt(0, 50, 20),
		pathAt(180, 9000, 20),
	})
	rs, err := Population(a, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("%d results", len(rs))
	}
	// The co-located pair confuses; the loner does not.
	if rs[0].Confusions == 0 || rs[1].Confusions == 0 {
		t.Fatal("co-located users not confused")
	}
	if rs[2].Confusions != 0 {
		t.Fatal("loner confused")
	}
}

func TestUserIndexValidation(t *testing.T) {
	a := alignedWorld(t, [][]geo.LatLon{pathAt(0, 0, 5)})
	if _, err := TimeToConfusion(a, 5, DefaultParams()); err == nil {
		t.Fatal("phantom user accepted")
	}
	if _, err := TimeToConfusion(a, -1, DefaultParams()); err == nil {
		t.Fatal("negative user accepted")
	}
}
