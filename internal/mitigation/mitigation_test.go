package mitigation

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/geo"
	"locwatch/internal/poi"
	"locwatch/internal/trace"
)

var (
	anchor  = geo.LatLon{Lat: 39.9042, Lon: 116.4074}
	mStart  = time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
	workPos = geo.Destination(anchor, 60, 4000)
)

// commute builds a simple noisy home→work→home trace.
func commute(seed int64, days int) []trace.Point {
	rng := rand.New(rand.NewSource(seed))
	var pts []trace.Point
	now := mStart
	emit := func(pos geo.LatLon, dur time.Duration) {
		end := now.Add(dur)
		for !now.After(end) {
			p := geo.Destination(pos, rng.Float64()*360, rng.Float64()*6)
			pts = append(pts, trace.Point{Pos: p, T: now})
			now = now.Add(2 * time.Second)
		}
	}
	walk := func(from, to geo.LatLon) {
		total := geo.Distance(from, to)
		steps := int(total / (9 * 2))
		for i := 1; i <= steps; i++ {
			pts = append(pts, trace.Point{Pos: geo.Interpolate(from, to, float64(i)/float64(steps+1)), T: now})
			now = now.Add(2 * time.Second)
		}
	}
	for d := 0; d < days; d++ {
		emit(anchor, 40*time.Minute)
		walk(anchor, workPos)
		emit(workPos, 3*time.Hour)
		walk(workPos, anchor)
		emit(anchor, 40*time.Minute)
		now = now.Add(10 * time.Hour)
	}
	return pts
}

func TestTruncateDegradesPrecision(t *testing.T) {
	pts := commute(1, 1)
	p, ok := NewTruncate(2).Apply(pts[0])
	if !ok {
		t.Fatal("truncation withheld a fix")
	}
	if p.Pos != geo.Truncate(pts[0].Pos, 2) {
		t.Fatalf("truncation not applied: %v", p.Pos)
	}
	if !p.T.Equal(pts[0].T) {
		t.Fatal("timestamp modified")
	}
}

func TestTruncateKillsPoIExtraction(t *testing.T) {
	pts := commute(2, 2)
	baseline, err := poi.Extract(trace.NewSliceSource(pts), poi.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) == 0 {
		t.Fatal("baseline found no stays")
	}
	// At 2 digits (~1.1 km) every released fix sits on a coarse
	// lattice; whatever stays the extractor still finds are at lattice
	// corners, hundreds of meters from the true venues, so none of the
	// user's real places is discovered.
	gt, err := core.BuildProfile(trace.NewSliceSource(pts), anchor, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := core.BuildProfile(Stream(trace.NewSliceSource(pts), NewTruncate(2)), anchor, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, discovered := gt.Coverage(obs); discovered != 0 {
		t.Fatalf("truncation still discovered %d true places", discovered)
	}
}

func TestCoarsenValidationAndEffect(t *testing.T) {
	for _, cell := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewCoarsen(anchor, cell); err == nil {
			t.Fatalf("cell %v accepted", cell)
		}
	}
	pts := commute(3, 1)
	c, err := NewCoarsen(anchor, 500)
	if err != nil {
		t.Fatal(err)
	}
	proj := geo.NewProjection(anchor)
	for _, p := range pts[:100] {
		p, ok := c.Apply(p)
		if !ok {
			t.Fatal("coarsening withheld a fix")
		}
		if snapped := proj.SnapToGrid(p.Pos, 500); snapped != p.Pos {
			t.Fatal("point not on grid")
		}
	}
}

func TestCoarsenReducesMetrics(t *testing.T) {
	pts := commute(4, 3)
	gt, err := core.BuildProfile(trace.NewSliceSource(pts), anchor, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := NewCoarsen(anchor, 2000)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := core.BuildProfile(Stream(trace.NewSliceSource(pts), coarse), anchor, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	_, discovered := gt.Coverage(obs)
	if discovered != 0 {
		t.Fatalf("2 km coarsening still discovered %d true places", discovered)
	}
}

func TestSuppressDropsProtectedZone(t *testing.T) {
	for _, radius := range []float64{0, -1, math.NaN(), math.Inf(-1)} {
		if _, err := NewSuppress(nil, radius); err == nil {
			t.Fatalf("radius %v accepted", radius)
		}
	}
	pts := commute(5, 2)
	s, err := NewSuppress([]geo.LatLon{workPos}, 150)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range pts {
		if _, ok := s.Apply(p); !ok {
			continue
		}
		n++
		if geo.Distance(p.Pos, workPos) <= 150 {
			t.Fatal("protected fix released")
		}
	}
	if n == 0 {
		t.Fatal("suppression dropped everything")
	}
	// The suppressed stream must not yield a PoI inside the zone. Note
	// the well-known residual leak this deliberately does NOT rule out:
	// the entry/exit fixes on the zone boundary straddling the data
	// hole can still merge into a boundary stay (Hoh et al.'s path
	// inference), which is why suppression alone is a weak defense.
	stays, err := poi.Extract(Stream(trace.NewSliceSource(pts), s), poi.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stays {
		if geo.Distance(st.Pos, workPos) < 150 {
			t.Fatalf("PoI inside the protected zone survived suppression: %v", st)
		}
	}
}

func TestDecoyHidesEverything(t *testing.T) {
	pts := commute(6, 3)
	fake := geo.Destination(anchor, 200, 9000)
	gt, err := core.BuildProfile(trace.NewSliceSource(pts), anchor, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := core.BuildProfile(Stream(trace.NewSliceSource(pts), NewDecoy(fake)), anchor, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, discovered := gt.Coverage(obs); discovered != 0 {
		t.Fatal("decoy feed discovered real places")
	}
	bin, err := gt.HisBin(obs, core.PatternRegion)
	if err != nil {
		t.Fatal(err)
	}
	if bin != 0 {
		t.Fatal("decoy feed matched the real profile")
	}
}

func TestRateLimit(t *testing.T) {
	if _, err := NewRateLimit(0); err == nil {
		t.Fatal("zero rate limit accepted")
	}
	pts := commute(7, 1)
	rl, err := NewRateLimit(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Time
	n := 0
	for _, p := range pts {
		if _, ok := rl.Apply(p); !ok {
			continue
		}
		if n > 0 && p.T.Sub(prev) < 10*time.Minute {
			t.Fatalf("spacing %v below the limit", p.T.Sub(prev))
		}
		prev = p.T
		n++
	}
	if n == 0 {
		t.Fatal("rate limit dropped everything")
	}
}

func TestMitigationPreservesTimeOrder(t *testing.T) {
	pts := commute(9, 2)
	sources := map[string]trace.Source{
		"truncate": Stream(trace.NewSliceSource(pts), NewTruncate(3)),
		"decoy":    Stream(trace.NewSliceSource(pts), NewDecoy(anchor)),
	}
	if c, err := NewCoarsen(anchor, 300); err == nil {
		sources["coarsen"] = Stream(trace.NewSliceSource(pts), c)
	}
	for name, src := range sources {
		var prev time.Time
		err := trace.ForEach(src, func(p trace.Point) error {
			if p.T.Before(prev) {
				t.Fatalf("%s reordered points", name)
			}
			prev = p.T
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamYieldsApplied checks the pull adapter against the push
// form: for every defense, Stream yields exactly the fixes Apply
// releases, as Apply releases them, in order.
func TestStreamYieldsApplied(t *testing.T) {
	pts := commute(10, 2)
	// Each constructor is called twice, so a stateful defense starts
	// afresh on each side.
	defenses := map[string]func() (Defense, error){
		"truncate": func() (Defense, error) { return NewTruncate(3), nil },
		"coarsen":  func() (Defense, error) { return NewCoarsen(anchor, 250) },
		"suppress": func() (Defense, error) { return NewSuppress([]geo.LatLon{workPos}, 150) },
		"decoy":    func() (Defense, error) { return NewDecoy(workPos), nil },
		"ratelimit": func() (Defense, error) {
			return NewRateLimit(90 * time.Second)
		},
	}
	for name, build := range defenses {
		push, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var want []trace.Point
		for _, p := range pts {
			if q, ok := push.Apply(p); ok {
				want = append(want, q)
			}
		}
		pull, err := build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.Collect(Stream(trace.NewSliceSource(pts), pull), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Points) != len(want) {
			t.Fatalf("%s: Stream yielded %d fixes, Apply released %d", name, len(got.Points), len(want))
		}
		for i := range want {
			if got.Points[i] != want[i] {
				t.Fatalf("%s: fix %d is %v through Stream, %v through Apply", name, i, got.Points[i], want[i])
			}
		}
	}
}

// TestRateLimitMatchesSampler checks that RateLimit is trace.Sampler's
// mechanism: on random traces, with repeated timestamps and gaps both
// shorter and longer than the limit, it releases exactly the fixes a
// Sampler at that interval releases.
func TestRateLimitMatchesSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		pts := make([]trace.Point, 1+rng.Intn(400))
		now := mStart
		for i := range pts {
			switch rng.Intn(4) {
			case 0: // a repeated timestamp
			case 1:
				now = now.Add(time.Duration(rng.Intn(5)+1) * time.Second)
			default:
				now = now.Add(time.Duration(rng.Int63n(int64(20 * time.Minute))))
			}
			// Distinct positions make every fix distinguishable, so
			// equal output sequences mean equal decisions fix by fix.
			pts[i] = trace.Point{Pos: geo.Destination(anchor, 90, float64(i)), T: now}
		}
		limit := time.Duration(1+rng.Int63n(int64(30*time.Minute))) + time.Second
		rl, err := NewRateLimit(limit)
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := trace.Collect(trace.NewSampler(trace.NewSliceSource(pts), limit, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for i, p := range pts {
			_, kept := rl.Apply(p)
			sampledHere := next < len(sampled.Points) && sampled.Points[next] == p
			if kept != sampledHere {
				t.Fatalf("trial %d, fix %d of %d at limit %v: RateLimit keeps it %v, Sampler %v",
					trial, i, len(pts), limit, kept, sampledHere)
			}
			if sampledHere {
				next++
			}
		}
		if next != len(sampled.Points) {
			t.Fatalf("trial %d: Sampler released %d fixes, RateLimit matched %d", trial, len(sampled.Points), next)
		}
	}
}

// FuzzSuppressExact checks Suppress's latitude-gap skip against the
// exact decision it replaces: a fix is withheld exactly when its
// haversine distance to the center is at most the radius. The seeds
// cover city-scale, polar and antipodal pairs, latitudes beyond ±90°
// (where the skip's bound fails), non-finite values, radii at the
// computed distance and one ulp to each side, latitude gaps that
// round above the distance, and a gap small enough that Distance
// underflows to zero.
func FuzzSuppressExact(f *testing.F) {
	type pair struct{ lat, lon, cLat, cLon float64 }
	pairs := []pair{
		{39.9042, 116.4074, 39.9060, 116.4074},  // 200 m north
		{39.9042, 116.4074, 39.9042, 116.4097},  // 200 m east
		{39.9042, 116.4074, 39.9100, 116.4500},  // across town
		{89.9999, 10, 89.9999, -170},            // over the north pole
		{-90, 0, -89.99, 45},                    // at the south pole
		{39.9042, 116.4074, -39.9042, -63.5926}, // antipodal
		{0, 0, 0, 180},                          // antipodal on the equator
		{95, 0, 85, 179.9},                      // past the pole: 969 m apart
		// Latitude gaps whose EarthRadius·|Δφ| rounds above Distance.
		{-34.49091569123896, -144.91633737631804, -34.481972073945656, -144.91633737631804},
		{58.791573832167074, 51.04234468784989, 58.79407076417871, 51.04234468784989},
		{-120, 30, 40, 30},                     // out of range
		{0, 0, 1e-320, 0},                      // Distance underflows to 0
		{math.NaN(), 0, 39.9, 116.4},           // NaN latitude
		{39.9, math.Inf(1), 39.9, 116.4},       // infinite longitude
		{math.Inf(-1), 0, 39.9, 116.4},         // infinite latitude
		{39.9042, 116.4074, 39.9042, 116.4074}, // the center itself
	}
	for _, p := range pairs {
		d := geo.Distance(geo.LatLon{Lat: p.lat, Lon: p.lon}, geo.LatLon{Lat: p.cLat, Lon: p.cLon})
		for _, radius := range []float64{200, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))} {
			f.Add(p.lat, p.lon, p.cLat, p.cLon, radius)
		}
	}
	f.Add(0.0, 0.0, 1e-320, 0.0, 1e-316)
	f.Add(39.9, 116.4, 40.0, 116.4, math.NaN())
	f.Add(39.9, 116.4, 40.0, 116.4, math.Inf(1))
	f.Fuzz(func(t *testing.T, lat, lon, cLat, cLon, radius float64) {
		pos := geo.LatLon{Lat: lat, Lon: lon}
		center := geo.LatLon{Lat: cLat, Lon: cLon}
		s, err := NewSuppress([]geo.LatLon{center}, radius)
		if !(radius > 0) {
			if err == nil {
				t.Fatalf("radius %v accepted", radius)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		d := geo.Distance(pos, center)
		_, kept := s.Apply(trace.Point{Pos: pos, T: mStart})
		if want := !(d <= radius); kept != want {
			t.Fatalf("fix %v, center %v, radius %v (distance %v): kept %v, exact check %v",
				pos, center, radius, d, kept, want)
		}
	})
}
