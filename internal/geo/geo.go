// Package geo provides geodesic primitives used throughout locwatch:
// geographic points, great-circle distance and bearing, destination
// projection, centroids, and a local tangent-plane (ENU) projection.
//
// All functions assume a spherical Earth with mean radius EarthRadius.
// The errors introduced by the spherical approximation (< 0.5%) are far
// below GPS noise and irrelevant at the scales this library works at
// (tens of meters to tens of kilometers).
package geo

import (
	"fmt"
	"math"
)

// EarthRadius is the mean Earth radius in meters (IUGG mean radius R1).
const EarthRadius = 6371008.8

// Degree/radian conversion factors.
const (
	degToRad = math.Pi / 180
	radToDeg = 180 / math.Pi
)

// LatLon is a geographic coordinate in decimal degrees.
//
// The zero value is the "null island" point (0, 0), which is a valid
// coordinate; use IsZero only when (0, 0) is known to be out of range of
// the data at hand.
type LatLon struct {
	Lat float64 // latitude in degrees, north positive, range [-90, 90]
	Lon float64 // longitude in degrees, east positive, range [-180, 180]
}

// String implements fmt.Stringer with 6 decimal places (~0.1 m).
func (p LatLon) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// IsZero reports whether p is the zero value (0, 0).
func (p LatLon) IsZero() bool { return p.Lat == 0 && p.Lon == 0 }

// Valid reports whether p lies in the canonical coordinate ranges.
func (p LatLon) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// Distance returns the great-circle (haversine) distance in meters
// between p and q.
func Distance(p, q LatLon) float64 {
	lat1 := p.Lat * degToRad
	lat2 := q.Lat * degToRad
	dLat := (q.Lat - p.Lat) * degToRad
	dLon := (q.Lon - p.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadius * math.Asin(math.Sqrt(h))
}

// LocalDistance returns the distance in meters between two nearby
// points using the equirectangular approximation at their mean
// latitude. For the sub-kilometer separations hot paths compare
// against meter-scale thresholds (the PoI extractors), it agrees with
// Distance to well under a centimeter at city latitudes — but the two
// are not interchangeable bit for bit, and LocalDistance degrades at
// continental separations where Distance stays exact.
func LocalDistance(p, q LatLon) float64 {
	mean := (p.Lat + q.Lat) / 2 * degToRad
	dLat := (q.Lat - p.Lat) * degToRad
	dLon := (q.Lon - p.Lon) * degToRad * math.Cos(mean)
	return EarthRadius * math.Sqrt(dLat*dLat+dLon*dLon)
}

// Bearing returns the initial great-circle bearing from p to q in
// degrees clockwise from true north, in [0, 360).
func Bearing(p, q LatLon) float64 {
	lat1 := p.Lat * degToRad
	lat2 := q.Lat * degToRad
	dLon := (q.Lon - p.Lon) * degToRad

	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	b := math.Atan2(y, x) * radToDeg
	return math.Mod(b+360, 360)
}

// Destination returns the point reached by traveling dist meters from p
// along the initial bearing (degrees clockwise from north).
func Destination(p LatLon, bearingDeg, dist float64) LatLon {
	lat1 := p.Lat * degToRad
	lon1 := p.Lon * degToRad
	brng := bearingDeg * degToRad
	ad := dist / EarthRadius

	sinLat1, cosLat1 := math.Sincos(lat1)
	sinAd, cosAd := math.Sincos(ad)

	lat2 := math.Asin(sinLat1*cosAd + cosLat1*sinAd*math.Cos(brng))
	lon2 := lon1 + math.Atan2(math.Sin(brng)*sinAd*cosLat1, cosAd-sinLat1*math.Sin(lat2))

	return LatLon{
		Lat: lat2 * radToDeg,
		Lon: normalizeLon(lon2 * radToDeg),
	}
}

// normalizeLon wraps a longitude into [-180, 180).
func normalizeLon(lon float64) float64 {
	lon = math.Mod(lon+180, 360)
	if lon < 0 {
		lon += 360
	}
	return lon - 180
}

// Midpoint returns the great-circle midpoint between p and q.
func Midpoint(p, q LatLon) LatLon {
	lat1 := p.Lat * degToRad
	lon1 := p.Lon * degToRad
	lat2 := q.Lat * degToRad
	dLon := (q.Lon - p.Lon) * degToRad

	bx := math.Cos(lat2) * math.Cos(dLon)
	by := math.Cos(lat2) * math.Sin(dLon)
	lat3 := math.Atan2(math.Sin(lat1)+math.Sin(lat2),
		math.Sqrt((math.Cos(lat1)+bx)*(math.Cos(lat1)+bx)+by*by))
	lon3 := lon1 + math.Atan2(by, math.Cos(lat1)+bx)

	return LatLon{Lat: lat3 * radToDeg, Lon: normalizeLon(lon3 * radToDeg)}
}

// Interpolate returns the point a fraction f of the way from p to q
// along the great circle, with f clamped to [0, 1]. Interpolation is
// done in a local linear approximation, which is accurate for the short
// (sub-kilometer) legs locwatch interpolates; for antipodal or very
// long segments use Midpoint recursively instead.
func Interpolate(p, q LatLon, f float64) LatLon {
	if f <= 0 {
		return p
	}
	if f >= 1 {
		return q
	}
	// Linear interpolation in lat/lon space is fine away from poles and
	// the antimeridian; the mobility simulator keeps all data well clear
	// of both.
	return LatLon{
		Lat: p.Lat + (q.Lat-p.Lat)*f,
		Lon: p.Lon + (q.Lon-p.Lon)*f,
	}
}

// Centroid returns the arithmetic centroid of the given points in
// lat/lon space. It is intended for tightly clustered points (a stay
// region); for clusters spanning less than a few kilometers the
// difference from the true spherical centroid is negligible.
// Centroid of an empty slice is the zero LatLon.
func Centroid(pts []LatLon) LatLon {
	if len(pts) == 0 {
		return LatLon{}
	}
	var sLat, sLon float64
	for _, p := range pts {
		sLat += p.Lat
		sLon += p.Lon
	}
	n := float64(len(pts))
	return LatLon{Lat: sLat / n, Lon: sLon / n}
}

// RunningCentroid incrementally maintains the centroid of a point set.
// The zero value is an empty centroid.
type RunningCentroid struct {
	sumLat float64
	sumLon float64
	n      int
}

// Add incorporates p into the centroid.
func (c *RunningCentroid) Add(p LatLon) {
	c.sumLat += p.Lat
	c.sumLon += p.Lon
	c.n++
}

// Remove removes a previously added point. Removing from an empty
// centroid is a no-op.
func (c *RunningCentroid) Remove(p LatLon) {
	if c.n == 0 {
		return
	}
	c.sumLat -= p.Lat
	c.sumLon -= p.Lon
	c.n--
	if c.n == 0 {
		c.sumLat, c.sumLon = 0, 0
	}
}

// Reset empties the centroid.
func (c *RunningCentroid) Reset() { *c = RunningCentroid{} }

// N returns the number of points currently incorporated.
func (c *RunningCentroid) N() int { return c.n }

// Value returns the current centroid, or the zero LatLon when empty.
func (c *RunningCentroid) Value() LatLon {
	if c.n == 0 {
		return LatLon{}
	}
	n := float64(c.n)
	return LatLon{Lat: c.sumLat / n, Lon: c.sumLon / n}
}

// BoundingBox is an axis-aligned lat/lon rectangle.
type BoundingBox struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// NewBoundingBox returns the tight bounding box of the given points.
// The box of an empty slice is the zero BoundingBox.
func NewBoundingBox(pts []LatLon) BoundingBox {
	if len(pts) == 0 {
		return BoundingBox{}
	}
	b := BoundingBox{
		MinLat: pts[0].Lat, MaxLat: pts[0].Lat,
		MinLon: pts[0].Lon, MaxLon: pts[0].Lon,
	}
	for _, p := range pts[1:] {
		b.MinLat = math.Min(b.MinLat, p.Lat)
		b.MaxLat = math.Max(b.MaxLat, p.Lat)
		b.MinLon = math.Min(b.MinLon, p.Lon)
		b.MaxLon = math.Max(b.MaxLon, p.Lon)
	}
	return b
}

// Contains reports whether p lies inside the box (inclusive).
func (b BoundingBox) Contains(p LatLon) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the box center.
func (b BoundingBox) Center() LatLon {
	return LatLon{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// Dimensions returns the box's north-south height and east-west width
// in meters. Height is measured along a meridian edge; width along the
// parallel at the box's middle latitude, which is where the cloaking
// experiments quote cell sizes.
func (b BoundingBox) Dimensions() (height, width float64) {
	height = Distance(LatLon{Lat: b.MinLat, Lon: b.MinLon}, LatLon{Lat: b.MaxLat, Lon: b.MinLon})
	midLat := (b.MinLat + b.MaxLat) / 2
	width = Distance(LatLon{Lat: midLat, Lon: b.MinLon}, LatLon{Lat: midLat, Lon: b.MaxLon})
	return height, width
}

// Area approximates the box area in m² as height × width.
func (b BoundingBox) Area() float64 {
	h, w := b.Dimensions()
	return h * w
}

// Expand grows the box by approximately margin meters on each side.
func (b BoundingBox) Expand(margin float64) BoundingBox {
	dLat := margin / EarthRadius * radToDeg
	midLat := (b.MinLat + b.MaxLat) / 2 * degToRad
	dLon := dLat / math.Max(math.Cos(midLat), 1e-9)
	return BoundingBox{
		MinLat: b.MinLat - dLat, MaxLat: b.MaxLat + dLat,
		MinLon: b.MinLon - dLon, MaxLon: b.MaxLon + dLon,
	}
}

// Projection is a local east-north tangent-plane projection anchored at
// an origin. It converts between geographic coordinates and local
// meters, which is both faster and easier to reason about than repeated
// haversine evaluation when working inside one metropolitan area.
type Projection struct {
	origin  LatLon
	cosLat0 float64
}

// NewProjection returns a projection anchored at origin.
func NewProjection(origin LatLon) *Projection {
	return &Projection{
		origin:  origin,
		cosLat0: math.Cos(origin.Lat * degToRad),
	}
}

// ToXY projects p to local (east, north) meters relative to the origin.
func (pr *Projection) ToXY(p LatLon) (x, y float64) {
	x = (p.Lon - pr.origin.Lon) * degToRad * EarthRadius * pr.cosLat0
	y = (p.Lat - pr.origin.Lat) * degToRad * EarthRadius
	return x, y
}

// FromXY inverts ToXY.
func (pr *Projection) FromXY(x, y float64) LatLon {
	return LatLon{
		Lat: pr.origin.Lat + y/EarthRadius*radToDeg,
		Lon: pr.origin.Lon + x/(EarthRadius*pr.cosLat0)*radToDeg,
	}
}

// Offset displaces p by (east, north) meters in the projection's
// tangent plane. It is the planar fast path for the small displacements
// hot loops apply per point (GPS noise, grid snapping): one add per
// axis instead of the sincos/asin/atan2 chain of Destination. For
// offsets up to a few hundred meters applied within a few tens of
// kilometers of the origin, the result agrees with the spherical
// Destination form to well under a meter (asserted in the tests).
func (pr *Projection) Offset(p LatLon, east, north float64) LatLon {
	return LatLon{
		Lat: p.Lat + north/EarthRadius*radToDeg,
		Lon: p.Lon + east/(EarthRadius*pr.cosLat0)*radToDeg,
	}
}

// PlanarDistance returns the Euclidean distance in meters between p and
// q under the projection. For points within a few tens of kilometers of
// the origin this agrees with Distance to well under a meter.
func (pr *Projection) PlanarDistance(p, q LatLon) float64 {
	x1, y1 := pr.ToXY(p)
	x2, y2 := pr.ToXY(q)
	return math.Hypot(x2-x1, y2-y1)
}

// Truncate reduces the precision of p to the given number of decimal
// digits, the coordinate-truncation defense studied by Micinski et al.
// Digits are clamped to [0, 8]. One decimal digit is roughly 11 km of
// latitude; five digits roughly 1.1 m.
func Truncate(p LatLon, digits int) LatLon {
	if digits < 0 {
		digits = 0
	}
	if digits > 8 {
		digits = 8
	}
	scale := math.Pow(10, float64(digits))
	return LatLon{
		Lat: math.Trunc(p.Lat*scale) / scale,
		Lon: math.Trunc(p.Lon*scale) / scale,
	}
}

// SnapToGrid snaps p onto a square grid of the given cell size in
// meters, anchored at the projection origin. It returns the center of
// the cell containing p. A non-positive cell size returns p unchanged.
func (pr *Projection) SnapToGrid(p LatLon, cell float64) LatLon {
	if cell <= 0 {
		return p
	}
	x, y := pr.ToXY(p)
	cx := (math.Floor(x/cell) + 0.5) * cell
	cy := (math.Floor(y/cell) + 0.5) * cell
	return pr.FromXY(cx, cy)
}
