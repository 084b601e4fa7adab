package geo

// Batch kernels: slice-at-a-time forms of the scalar primitives above.
//
// Hot loops (trace generation, PoI extraction, detector sweeps) spend
// most of their time applying the same few-flop formula to millions of
// fixes. The batch forms amortize call overhead and bounds checks over
// a whole slice and give the compiler straight-line loop bodies it can
// unroll or vectorize. Every kernel evaluates *exactly* the scalar
// formula per element — same operations, same order — so results are
// bit-for-bit identical to a scalar loop (property-tested in
// batch_test.go); the determinism guarantees of DESIGN.md §7 therefore
// carry over unchanged.

// InterpolateBatch fills dst with Interpolate(p, q, fs[i]) for each i:
// many fractions along one segment, the inner kernel of batched leg
// interpolation. dst and fs must have the same length.
func InterpolateBatch(dst []LatLon, p, q LatLon, fs []float64) {
	checkBatchLens(len(dst), len(fs), len(fs))
	for i, f := range fs {
		dst[i] = Interpolate(p, q, f)
	}
}

// OffsetBatch displaces pts[i] by (east[i], north[i]) meters in place.
// All three slices must have the same length.
func (pr *Projection) OffsetBatch(pts []LatLon, east, north []float64) {
	checkBatchLens(len(pts), len(east), len(north))
	for i := range pts {
		pts[i] = pr.Offset(pts[i], east[i], north[i])
	}
}

// AtSoA returns element i of the SoA coordinate pair (lat, lon) as a
// LatLon. SoA buffers are filled from LatLon values, so the round trip
// preserves the validation status of the original point.
func AtSoA(lat, lon []float64, i int) LatLon {
	return LatLon{Lat: lat[i], Lon: lon[i]}
}

// CentroidSoA returns the centroid of the SoA coordinate pair
// (lat, lon): left-to-right sums divided by the count, the exact
// summation order of feeding a fresh RunningCentroid — callers that
// swap between the two representations get bit-identical centroids.
// Empty input returns the zero LatLon.
func CentroidSoA(lat, lon []float64) LatLon {
	checkBatchLens(len(lat), len(lon), len(lon))
	if len(lat) == 0 {
		return LatLon{}
	}
	var sLat, sLon float64
	for i := range lat {
		sLat += lat[i]
		sLon += lon[i]
	}
	n := float64(len(lat))
	return LatLon{Lat: sLat / n, Lon: sLon / n}
}

// AddSoA incorporates every point of the SoA pair (lat, lon) into the
// centroid, in slice order — equivalent to calling Add per element.
func (c *RunningCentroid) AddSoA(lat, lon []float64) {
	checkBatchLens(len(lat), len(lon), len(lon))
	for i := range lat {
		c.sumLat += lat[i]
		c.sumLon += lon[i]
	}
	c.n += len(lat)
}

// RemoveSoA removes every point of the SoA pair (lat, lon) from the
// centroid, in slice order — equivalent to calling Remove per element,
// including the stop-at-empty and zero-on-empty semantics.
func (c *RunningCentroid) RemoveSoA(lat, lon []float64) {
	checkBatchLens(len(lat), len(lon), len(lon))
	for i := range lat {
		if c.n == 0 {
			return
		}
		c.sumLat -= lat[i]
		c.sumLon -= lon[i]
		c.n--
		if c.n == 0 {
			c.sumLat, c.sumLon = 0, 0
		}
	}
}

// checkBatchLens panics when a batch kernel's slices disagree in
// length. A panic (not an error return) keeps the kernels' hot-loop
// signatures allocation- and branch-misprediction-free; lengths are a
// static property of the caller's buffer management, not of the data.
func checkBatchLens(a, b, c int) {
	if a != b || b != c {
		panic("geo: batch kernel slice lengths disagree")
	}
}
