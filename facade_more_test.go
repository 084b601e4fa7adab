package locwatch_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"locwatch"
	"locwatch/internal/privlog"
)

// TestFacadeDefenses exercises every defense re-export.
func TestFacadeDefenses(t *testing.T) {
	anchor := locwatch.LatLon{Lat: 39.9, Lon: 116.4}
	mk := func() []locwatch.Point {
		pts := make([]locwatch.Point, 100)
		base := time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
		for i := range pts {
			pts[i] = locwatch.Point{
				Pos: locwatch.Destination(anchor, 90, float64(i)*5),
				T:   base.Add(time.Duration(i) * time.Second),
			}
		}
		return pts
	}

	if c, err := locwatch.CoarsenStream(locwatch.NewSliceSource(mk()), anchor, 500); err != nil {
		t.Fatal(err)
	} else if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := locwatch.CoarsenStream(nil, anchor, -1); err == nil {
		t.Fatal("bad coarsen accepted")
	}

	if s, err := locwatch.SuppressStream(locwatch.NewSliceSource(mk()), []locwatch.LatLon{anchor}, 100); err != nil {
		t.Fatal(err)
	} else {
		p, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if locwatch.Distance(p.Pos, anchor) <= 100 {
			t.Fatal("suppressed fix released")
		}
	}
	if _, err := locwatch.SuppressStream(nil, nil, 0); err == nil {
		t.Fatal("bad suppress accepted")
	}
	if _, err := locwatch.SuppressStream(nil, nil, math.NaN()); err == nil {
		t.Fatal("NaN suppression radius accepted")
	}
	if _, err := locwatch.CoarsenStream(nil, anchor, math.NaN()); err == nil {
		t.Fatal("NaN coarsening cell accepted")
	}
	if _, err := locwatch.CoarsenStream(nil, anchor, math.Inf(1)); err == nil {
		t.Fatal("infinite coarsening cell accepted")
	}

	d := locwatch.DecoyStream(locwatch.NewSliceSource(mk()), anchor)
	p, err := d.Next()
	if err != nil || p.Pos != anchor {
		t.Fatalf("decoy: %v %v", p, err)
	}

	if rl, err := locwatch.RateLimitStream(locwatch.NewSliceSource(mk()), 30*time.Second); err != nil {
		t.Fatal(err)
	} else {
		tr, err := locwatch.Collect(rl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 4 { // t=0,30,60,90
			t.Fatalf("rate limit kept %d points", tr.Len())
		}
	}
	if _, err := locwatch.RateLimitStream(nil, 0); err == nil {
		t.Fatal("bad rate limit accepted")
	}

	s := locwatch.NewSampler(locwatch.NewSliceSource(mk()), 10*time.Second, 0)
	tr, err := locwatch.Collect(s, 0)
	if err != nil || tr.Len() != 10 {
		t.Fatalf("sampler kept %d points (%v)", tr.Len(), err)
	}
}

// TestFacadeBuilders exercises the incremental builders and the
// combined detector through the facade.
func TestFacadeBuilders(t *testing.T) {
	anchor := locwatch.LatLon{Lat: 39.9, Lon: 116.4}
	b, err := locwatch.NewProfileBuilder(anchor, locwatch.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		err := b.Feed(locwatch.Point{
			Pos: locwatch.Destination(anchor, 10, 3),
			T:   base.Add(time.Duration(i) * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	prof := b.Profile()
	if prof.NumPoints() != 1000 {
		t.Fatalf("builder consumed %d points", prof.NumPoints())
	}

	if _, err := locwatch.NewCombinedDetector(prof); err != nil {
		t.Fatal(err)
	}

	c, err := locwatch.NewCanonicalizer(anchor, 75)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(locwatch.StayPoint{Pos: anchor, Enter: base, Exit: base.Add(time.Hour)})
	if c.NumPlaces() != 1 {
		t.Fatal("canonicalizer broken through facade")
	}
}

// TestFacadeExperimentConfigs checks the experiment config helpers.
func TestFacadeExperimentConfigs(t *testing.T) {
	full := locwatch.DefaultExperimentConfig()
	quick := locwatch.QuickExperimentConfig()
	if full.Mobility.Users != 182 {
		t.Fatalf("default users = %d", full.Mobility.Users)
	}
	if quick.Mobility.Users >= full.Mobility.Users {
		t.Fatal("quick config is not smaller")
	}
	quick.Mobility.Users = 2
	quick.Mobility.Days = 2
	lab, err := locwatch.NewLab(quick)
	if err != nil {
		t.Fatal(err)
	}
	if lab.World().NumUsers() != 2 {
		t.Fatal("lab world wrong size")
	}
}

// TestFacadeErrorsLeakNoCoordinate searches the errors the facade's
// constructors and profile builders return for bad input for the
// positions that went in: callers log these errors, so none may carry
// a raw coordinate.
func TestFacadeErrorsLeakNoCoordinate(t *testing.T) {
	pos := locwatch.LatLon{Lat: 39.912345678, Lon: 116.312345678}
	other := locwatch.LatLon{Lat: 39.987654321, Lon: 116.387654321}
	far := locwatch.LatLon{Lat: 91.123456789, Lon: 116.312345678}
	empty := func(anchor locwatch.LatLon) *locwatch.Profile {
		p, err := locwatch.BuildProfile(locwatch.NewSliceSource(nil), anchor, locwatch.Params{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	errs := map[string]error{}
	_, errs["CoarsenStream"] = locwatch.CoarsenStream(nil, pos, -1)
	_, errs["SuppressStream"] = locwatch.SuppressStream(nil, []locwatch.LatLon{pos, far}, math.NaN())
	_, errs["RateLimitStream"] = locwatch.RateLimitStream(nil, 0)
	_, errs["NewCanonicalizer"] = locwatch.NewCanonicalizer(pos, -1)
	_, errs["NewProfileBuilder"] = locwatch.NewProfileBuilder(pos, locwatch.Params{Alpha: 2})
	_, errs["BuildProfile"] = locwatch.BuildProfile(nil, pos, locwatch.Params{MergeRadius: -1})
	_, errs["NewDetector"] = locwatch.NewDetector(nil, locwatch.PatternRegion)
	_, errs["NewCombinedDetector"] = locwatch.NewCombinedDetector(nil)
	_, errs["NewAdversary"] = locwatch.NewAdversary([]*locwatch.Profile{empty(pos), empty(other)})
	_, errs["NewCloaker"] = locwatch.NewCloaker(pos, -1, 5, 10)
	t0 := time.Date(2026, 3, 2, 8, 0, 0, 0, time.UTC)
	rewound := []locwatch.Point{{Pos: pos, T: t0.Add(time.Minute)}, {Pos: other, T: t0}}
	_, errs["BuildProfile of a rewound trace"] = locwatch.BuildProfile(locwatch.NewSliceSource(rewound), pos, locwatch.Params{})
	if b, err := locwatch.NewProfileBuilder(pos, locwatch.Params{}); err != nil {
		t.Fatal(err)
	} else {
		errs["ProfileBuilder.Feed of a rewound fix"] = errors.Join(b.Feed(rewound[0]), b.Feed(rewound[1]))
	}
	for name, err := range errs {
		if err == nil {
			t.Errorf("%s accepted bad input", name)
			continue
		}
		for _, hit := range privlog.FindLeaks([]byte(err.Error()), []locwatch.LatLon{pos, other, far}) {
			t.Errorf("%s error %q leaks a position: %s", name, err, hit)
		}
	}
}
