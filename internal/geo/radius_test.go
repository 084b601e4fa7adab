package geo

import (
	"math"
	"math/rand"
	"testing"
)

// checkRadiusTest fails unless both of t's decisions on (p, q) equal
// the exact comparisons they stand for.
func checkRadiusTest(tb testing.TB, rt *RadiusTest, p, q LatLon) {
	tb.Helper()
	d := LocalDistance(p, q)
	if got, want := rt.AtLeast(p, q), d >= rt.r; got != want {
		tb.Fatalf("AtLeast(%v, %v) with r %v = %v; LocalDistance %v >= r is %v", p, q, rt.r, got, d, want)
	}
	if got, want := rt.AtMost(p, q), d <= rt.r; got != want {
		tb.Fatalf("AtMost(%v, %v) with r %v = %v; LocalDistance %v <= r is %v", p, q, rt.r, got, d, want)
	}
}

// decided reports whether rt's bracket decides (p, q) without the
// exact comparison: with r poisoned to NaN that comparison reads false
// for both operators, while a bracket's answer is true for one.
func decided(rt RadiusTest, p, q LatLon) bool {
	rt.r = math.NaN()
	return rt.AtLeast(p, q) || rt.AtMost(p, q)
}

// TestRadiusTestDecidesCityPairs checks the fast path on the pairs the
// extractors meet, centroids up to twice the radius apart: every
// decision is exact, near the poles too, and at city latitudes the
// bracket decides all but the pairs within a band's cosine spread
// (about 0.2%) of the radius without LocalDistance.
func TestRadiusTestDecidesCityPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, r := range []float64{50, 100} {
		rt := NewRadiusTest(r)
		open, city := 0, 0
		for i := 0; i < 20000; i++ {
			lat := []float64{39.9042, -33.8688, 64.1466, 89.95, -89.99}[i%5]
			p := LatLon{Lat: lat + rng.Float64()*0.01, Lon: 116.4 + rng.Float64()*0.01}
			q := Destination(p, rng.Float64()*360, rng.Float64()*2*r)
			checkRadiusTest(t, &rt, p, q)
			if math.Abs(lat) < 80 {
				city++
				if !decided(rt, p, q) {
					open++
				}
			}
		}
		if open > city/100 {
			t.Errorf("r %v: %d of %d city pairs undecided", r, open, city)
		}
	}
}

// TestRadiusTestExactPathInputs pins the inputs the bracket must leave
// to the exact comparison, because it cannot bound them.
func TestRadiusTestExactPathInputs(t *testing.T) {
	city := LatLon{Lat: 39.9042, Lon: 116.4074}
	for _, tc := range []struct {
		name string
		r    float64
		p, q LatLon
	}{
		{"NaN latitude", 50, LatLon{Lat: math.NaN(), Lon: 116.4}, city},
		{"NaN longitude", 50, LatLon{Lat: 39.9, Lon: math.NaN()}, city},
		{"infinite latitude", 50, LatLon{Lat: math.Inf(1), Lon: 116.4}, city},
		{"mean latitude past the pole", 200, LatLon{Lat: 95, Lon: 0}, LatLon{Lat: 95, Lon: 0.5}},
		{"radius below the floor", 1e-150, city, city},
		{"NaN radius", math.NaN(), city, LatLon{Lat: 39.9, Lon: 116.4}},
	} {
		rt := NewRadiusTest(tc.r)
		if decided(rt, tc.p, tc.q) {
			t.Errorf("%s: the bracket decided", tc.name)
		}
		checkRadiusTest(t, &rt, tc.p, tc.q)
	}
}

// FuzzLocalThresholdExact is RadiusTest's oracle: each decision equals
// LocalDistance(p, q) >= r or <= r, NaN distances included, whatever
// band the test has cached from the pair before.
func FuzzLocalThresholdExact(f *testing.F) {
	type pair struct{ pLat, pLon, qLat, qLon float64 }
	pairs := []pair{
		{39.9042, 116.4074, 39.9046, 116.4074},   // 44 m north
		{39.9042, 116.4074, 39.9042, 116.4080},   // 51 m east
		{39.9042, 116.4074, 39.9100, 116.4500},   // across town
		{-33.8688, 151.2093, -33.8690, 151.2098}, // southern city
		{89.9999, 10, 89.9999, -170},             // over the north pole
		{-90, 0, -89.99, 45},                     // at the south pole
		{90, 0, 90, 1},                           // mean latitude 90
		{-90, 0, -90, 1},                         // mean latitude −90
		{39.9, 116.4, 40.1, 116.4},               // mean 40: a band edge
		{0.0625, 0, -0.0625, 0.001},              // mean 0: a band edge
		{39.9042, 116.4074, -39.9042, -63.5926},  // antipodal
		{0, 0, 0, 180},                           // antipodal on the equator
		{95, 0, 95, 0.5},                         // mean latitude past the pole
		{-100, 10, -100, 10.2},                   // mean latitude past the pole
		{1e154, 0, -1e154, 0},                    // in-range mean, overflowing gap
		{0, 0, 1e-159, 0},                        // subnormal latitude gap
		{0, 0, 1e-320, 0},                        // LocalDistance underflows to 0
		{math.NaN(), 116.4, 39.9, 116.4},         // NaN latitude
		{39.9, math.NaN(), 39.9, 116.4},          // NaN longitude
		{39.9, math.Inf(1), 39.9, 116.4},         // infinite longitude
		{math.Inf(-1), 116.4, 39.9, 116.4},       // infinite latitude
		{39.9042, 116.4074, 39.9042, 116.4074},   // one point twice
	}
	for _, p := range pairs {
		d := LocalDistance(LatLon{Lat: p.pLat, Lon: p.pLon}, LatLon{Lat: p.qLat, Lon: p.qLon})
		for _, r := range []float64{50, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))} {
			f.Add(p.pLat, p.pLon, p.qLat, p.qLon, r)
		}
	}
	f.Add(39.9, 116.4, 39.9, 116.4, 1e-141) // below the floor
	f.Add(39.9, 116.4, 40.0, 116.4, math.NaN())
	f.Add(39.9, 116.4, 40.0, 116.4, math.Inf(1))
	f.Add(39.9, 116.4, 40.0, 116.4, -50.0)
	f.Add(39.9, 116.4, 40.0, 116.4, 1e300)
	f.Fuzz(func(t *testing.T, pLat, pLon, qLat, qLon, r float64) {
		p, q := LatLon{Lat: pLat, Lon: pLon}, LatLon{Lat: qLat, Lon: qLon}
		rt := NewRadiusTest(r)
		checkRadiusTest(t, &rt, p, q) // fills the band cache
		checkRadiusTest(t, &rt, q, p) // reads it
		// A cache filled at a city latitude, then a pair in any band.
		warm := NewRadiusTest(r)
		warm.AtMost(LatLon{Lat: 39.9, Lon: 116.4}, LatLon{Lat: 39.9, Lon: 116.4})
		checkRadiusTest(t, &warm, p, q)
	})
}
