// Package mitigation implements the location-privacy defenses the
// paper's related work surveys, as push-style filters: a Defense is
// told one fix at a time and returns the fix the app receives, changed
// or not, or withholds it. One replay can therefore feed many defenses,
// each into its own consumer (an app simulation, a PoI extractor, the
// privacy model), and Stream turns any defense back into a
// trace.Source for consumers that pull:
//
//   - Truncate: coordinate truncation (Micinski et al.);
//   - Coarsen: grid snapping, LP-Guardian's treatment of background
//     requests (Fawaz & Shin);
//   - Suppress: zone suppression around sensitive places (the
//     "blocking access to sensitive locations" users can apply);
//   - Decoy: fixed fake location (MockDroid / TISSA-style shadow data);
//   - RateLimit: enforcing a minimum interval between released fixes,
//     the defense the paper's frequency analysis motivates.
package mitigation

import (
	"fmt"
	"math"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/trace"
)

// Defense decides what an app receives of each fix of one stream,
// told in time order. Apply returns the released fix, changed or
// unchanged, or false when the fix is withheld.
type Defense interface {
	Apply(p trace.Point) (trace.Point, bool)
}

// Stream returns the fixes of src that d releases, as d releases them:
// the pull-style form of a defense.
func Stream(src trace.Source, d Defense) trace.Source {
	return &stream{src: src, d: d}
}

type stream struct {
	src trace.Source
	d   Defense
}

// Next implements trace.Source.
func (s *stream) Next() (trace.Point, error) {
	for {
		p, err := s.src.Next()
		if err != nil {
			return trace.Point{}, err
		}
		if q, ok := s.d.Apply(p); ok {
			return q, nil
		}
	}
}

// Truncate truncates every coordinate to the given number of decimal
// digits. Two digits is roughly 1.1 km, four roughly 11 m.
type Truncate struct {
	t geo.Truncation
}

// NewTruncate returns coordinate truncation to digits decimal digits,
// clamped to [0, 8] like geo.Truncate.
func NewTruncate(digits int) *Truncate {
	return &Truncate{t: geo.NewTruncation(digits)}
}

// Apply implements Defense.
func (t *Truncate) Apply(p trace.Point) (trace.Point, bool) {
	p.Pos = t.t.Apply(p.Pos)
	return p, true
}

// Coarsen snaps every fix to the center of a square grid cell,
// LP-Guardian's city-level / block-level release for background apps.
type Coarsen struct {
	proj *geo.Projection
	cell float64
}

// NewCoarsen returns grid snapping anchored at anchor. cell is the
// grid size in meters and must be positive and finite: a NaN or
// infinite cell would snap every fix to a non-finite coordinate.
func NewCoarsen(anchor geo.LatLon, cell float64) (*Coarsen, error) {
	if !(cell > 0) || math.IsInf(cell, 1) {
		return nil, fmt.Errorf("mitigation: cell must be positive and finite, got %v", cell)
	}
	return &Coarsen{proj: geo.NewProjection(anchor), cell: cell}, nil
}

// Apply implements Defense.
func (c *Coarsen) Apply(p trace.Point) (trace.Point, bool) {
	p.Pos = c.proj.SnapToGrid(p.Pos, c.cell)
	return p, true
}

// Suppress drops every fix within radius meters of any protected
// center — the user-level "block my sensitive places" control.
type Suppress struct {
	centers []geo.LatLon
	radius  float64
	cut     float64 // latitude gap in meters beyond which a center is skipped
}

// metersPerDegree turns a latitude gap in degrees into EarthRadius·|Δφ|
// in meters.
const metersPerDegree = geo.EarthRadius * math.Pi / 180

// minCut is the smallest cut protected uses its latitude bound at.
// Nearer than this the haversine term sin²(Δφ/2) can fall into the
// subnormal range, where Distance loses the relative precision the
// bound's margin assumes.
const minCut = 1e-140

// NewSuppress returns suppression of fixes near the protected centers.
// radius must be positive; +Inf protects everything, while NaN, which
// would protect nothing, is rejected.
func NewSuppress(centers []geo.LatLon, radius float64) (*Suppress, error) {
	if !(radius > 0) {
		return nil, fmt.Errorf("mitigation: radius must be positive, got %v", radius)
	}
	cs := make([]geo.LatLon, len(centers))
	copy(cs, centers)
	cut := radius * (1 + 1e-9)
	if cut < minCut {
		cut = math.Inf(1)
	}
	return &Suppress{centers: cs, radius: radius, cut: cut}, nil
}

// Apply implements Defense.
func (s *Suppress) Apply(p trace.Point) (trace.Point, bool) {
	return p, !s.protected(p.Pos)
}

// protected reports whether geo.Distance(pos, c) <= radius for some
// center c, without computing most of those distances. When both
// latitudes lie in [−90°, 90°] the cosine product in the haversine is
// non-negative, so the distance is at least EarthRadius·|Δφ|; a center
// whose latitude gap alone exceeds cut is out of reach. cut exceeds
// radius by a relative 1e-9, far wider than Distance's rounding error,
// so the skip agrees with the exact check. Any other latitude,
// non-finite ones included, takes the exact check.
func (s *Suppress) protected(pos geo.LatLon) bool {
	bounded := math.Abs(pos.Lat) <= 90
	for _, c := range s.centers {
		if bounded && math.Abs(c.Lat) <= 90 && math.Abs(c.Lat-pos.Lat)*metersPerDegree > s.cut {
			continue
		}
		if geo.Distance(pos, c) <= s.radius {
			return true
		}
	}
	return false
}

// Decoy releases a fixed fake position with the original timestamps —
// MockDroid's "fake data" choice and TISSA's shadow location.
type Decoy struct {
	pos geo.LatLon
}

// NewDecoy returns a defense replacing every position with pos.
func NewDecoy(pos geo.LatLon) *Decoy {
	return &Decoy{pos: pos}
}

// Apply implements Defense.
func (d *Decoy) Apply(p trace.Point) (trace.Point, bool) {
	p.Pos = d.pos
	return p, true
}

// RateLimit enforces a minimum spacing between released fixes — the OS
// clamping a background app's effective access frequency. Its decision
// is trace.Sampler's, through the same trace.Gate. A RateLimit keeps
// the schedule of the stream it is applied to, so it serves one stream
// only.
type RateLimit struct {
	gate trace.Gate
}

// NewRateLimit returns a limit of at most one fix per min interval.
func NewRateLimit(min time.Duration) (*RateLimit, error) {
	if min <= 0 {
		return nil, fmt.Errorf("mitigation: rate limit must be positive, got %v", min)
	}
	return &RateLimit{gate: trace.NewGate(min, 0)}, nil
}

// Apply implements Defense.
func (r *RateLimit) Apply(p trace.Point) (trace.Point, bool) {
	return p, r.gate.Keep(p)
}
