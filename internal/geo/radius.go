package geo

import "math"

// MetersPerDegree is the length in meters of one degree of arc on the
// sphere, EarthRadius·π/180. LocalDistance(p, q) is
// MetersPerDegree·√(Δφ² + (Δλ·cos φm)²), with the differences and the
// mean latitude φm in degrees.
const MetersPerDegree = EarthRadius * math.Pi / 180

// Bounds of a RadiusTest's fast path.
const (
	// radiusMargin is the relative gap a bracket must keep from the
	// threshold to decide: far wider than the rounding error of either
	// LocalDistance or the bracket (a few ulps each).
	radiusMargin = 1e-9
	// minRadius is the smallest radius the bracket decides. Below it the
	// squared threshold nears the subnormal range, where the squares of
	// tiny coordinate gaps lose the relative precision the margin
	// assumes.
	minRadius = 1e-140
	// bandWidth is the height in degrees of the latitude band whose
	// edge cosines a RadiusTest caches. Within one band the cosines
	// differ by at most about 0.2%, so a bracket around a centroid gap
	// decides unless it is within that of the radius.
	bandWidth = 0.125
)

// RadiusTest compares LocalDistance with one radius r, returning
// exactly what LocalDistance(p, q) >= r or <= r returns but mostly
// without its cosine and square root. It caches the cosines at the
// edges of the latitude band holding the pair's mean latitude, which
// bound cos φm, and so brackets the squared distance in degree units
// between Δφ² + (Δλ·cmin)² and Δφ² + (Δλ·cmax)². A bracket wholly
// below or above (r/MetersPerDegree)² by the relative radiusMargin
// decides; anything else takes the exact comparison: a bracket near
// the threshold, a mean latitude that is NaN or outside [−90, 90]
// (where the cosine can be negative), a NaN bracket, and radii below
// minRadius, NaN ones included. A NaN distance makes both >= r and
// <= r false, so each operator has its own method.
//
// Construct a RadiusTest with NewRadiusTest. Its band cache is
// mutable: use one per goroutine, as an extractor does.
type RadiusTest struct {
	r float64
	// lo and hi are (r/MetersPerDegree)² less and plus the margin; a
	// radius the bracket does not decide has lo = −Inf and hi = +Inf.
	lo, hi float64
	// The cached band [south, north] and the cosines at its edges;
	// south > north until the first pair fills it.
	south, north float64
	cMin, cMax   float64
}

// NewRadiusTest returns the test against radius r in meters.
func NewRadiusTest(r float64) RadiusTest {
	t := RadiusTest{r: r, lo: math.Inf(-1), hi: math.Inf(1), south: 1, north: 0}
	if r >= minRadius {
		d := r / MetersPerDegree
		t.lo, t.hi = d*d*(1-radiusMargin), d*d*(1+radiusMargin)
	}
	return t
}

// AtLeast reports LocalDistance(p, q) >= r.
func (t *RadiusTest) AtLeast(p, q LatLon) bool { return t.decide(p, q, false) }

// AtMost reports LocalDistance(p, q) <= r.
func (t *RadiusTest) AtMost(p, q LatLon) bool { return t.decide(p, q, true) }

// decide reports LocalDistance(p, q) <= r when atMost is true and
// LocalDistance(p, q) >= r otherwise. It brackets the squared distance
// with the cosines of the cached band when the mean latitude, which is
// LocalDistance's own first step, lies in it or in [−90, 90], and
// answers from the bracket when it clears the threshold's margin.
// One body serves both operators so that the hot path is one call.
func (t *RadiusTest) decide(p, q LatLon, atMost bool) bool {
	if m := (p.Lat + q.Lat) / 2; m >= t.south && m <= t.north || t.cache(m) {
		dLat := q.Lat - p.Lat
		dLon := q.Lon - p.Lon
		lat2 := dLat * dLat
		// Each bound multiplies Δλ by a cosine before squaring, so a
		// large Δλ overflows only when the bound itself exceeds the
		// float range.
		if u := dLon * t.cMax; lat2+u*u < t.lo {
			return atMost // certainly nearer than r
		}
		if l := dLon * t.cMin; lat2+l*l > t.hi {
			return !atMost // certainly farther than r
		}
	}
	d := LocalDistance(p, q)
	if atMost {
		return d <= t.r
	}
	return d >= t.r
}

// cache makes the band holding mean latitude m the cached one,
// reporting false, with the cache unchanged, for a NaN m or one
// outside [−90, 90]. The band [south, north] has edges on multiples of
// bandWidth and lies inside [−90, 90], so cos is monotone on it and
// positive at both edges.
func (t *RadiusTest) cache(m float64) bool {
	if !(m >= -90 && m <= 90) {
		return false
	}
	south := min(math.Floor(m/bandWidth)*bandWidth, 90-bandWidth)
	north := south + bandWidth
	cs, cn := math.Cos(south*degToRad), math.Cos(north*degToRad)
	t.south, t.north = south, north
	t.cMin, t.cMax = min(cs, cn), max(cs, cn)
	return true
}
