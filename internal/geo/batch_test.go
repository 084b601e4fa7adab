package geo

import (
	"math"
	"math/rand"
	"testing"
)

// bitsEq reports bit-for-bit float equality (distinguishes ±0, NaNs
// with different payloads — the strictest notion the determinism tests
// rely on).
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func latLonBitsEq(a, b LatLon) bool {
	return bitsEq(a.Lat, b.Lat) && bitsEq(a.Lon, b.Lon)
}

// randPairs returns n (p, q) pairs: city-scale pairs clustered within
// ~±0.5° of a random city origin, and antipodal-ish pairs spanning the
// globe — the two regimes the scalar kernels see (hot-path local math
// and worst-case great-circle geometry).
func randPairs(rng *rand.Rand, n int) (ps, qs []LatLon) {
	ps = make([]LatLon, n)
	qs = make([]LatLon, n)
	for i := range ps {
		if i%4 != 3 { // city-scale
			origin := LatLon{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*360 - 180}
			ps[i] = LatLon{Lat: origin.Lat + rng.Float64() - 0.5, Lon: origin.Lon + rng.Float64() - 0.5}
			qs[i] = LatLon{Lat: origin.Lat + rng.Float64() - 0.5, Lon: origin.Lon + rng.Float64() - 0.5}
		} else { // antipodal-ish
			ps[i] = LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
			qs[i] = LatLon{Lat: -ps[i].Lat + rng.Float64() - 0.5, Lon: normalizeLon(ps[i].Lon + 180 + rng.Float64() - 0.5)}
		}
	}
	return ps, qs
}

// TestBatchKernelsBitIdentical is the property test of DESIGN.md §7:
// every batch kernel agrees bit for bit with its scalar form on the
// scalar path's inputs.
func TestBatchKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 4096
	ps, qs := randPairs(rng, n)

	fs := make([]float64, n)
	for i := range fs {
		fs[i] = rng.Float64()*1.2 - 0.1 // cover both clamp branches
	}
	pts := make([]LatLon, n)
	InterpolateBatch(pts, ps[0], qs[0], fs)
	for i := range fs {
		if want := Interpolate(ps[0], qs[0], fs[i]); !latLonBitsEq(pts[i], want) {
			t.Fatalf("InterpolateBatch[%d] = %v, scalar = %v", i, pts[i], want)
		}
	}

	pr := NewProjection(ps[0])
	east := make([]float64, n)
	north := make([]float64, n)
	for i := range east {
		east[i] = rng.NormFloat64() * 50
		north[i] = rng.NormFloat64() * 50
	}
	got := append([]LatLon(nil), ps...)
	pr.OffsetBatch(got, east, north)
	for i := range ps {
		if want := pr.Offset(ps[i], east[i], north[i]); !latLonBitsEq(got[i], want) {
			t.Fatalf("OffsetBatch[%d] = %v, scalar = %v", i, got[i], want)
		}
	}
}

// TestSoACentroidBitIdentical checks the SoA centroid kernels against
// the RunningCentroid sequence they replace in the PoI windows.
func TestSoACentroidBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps, _ := randPairs(rng, 257)
	lat := make([]float64, len(ps))
	lon := make([]float64, len(ps))
	for i, p := range ps {
		lat[i] = p.Lat
		lon[i] = p.Lon
	}

	var ref RunningCentroid
	for _, p := range ps {
		ref.Add(p)
	}
	if got := CentroidSoA(lat, lon); !latLonBitsEq(got, ref.Value()) {
		t.Fatalf("CentroidSoA = %v, RunningCentroid = %v", got, ref.Value())
	}

	var a, b RunningCentroid
	a.AddSoA(lat, lon)
	for _, p := range ps {
		b.Add(p)
	}
	if !latLonBitsEq(a.Value(), b.Value()) || a.N() != b.N() {
		t.Fatalf("AddSoA = %v (n=%d), scalar = %v (n=%d)", a.Value(), a.N(), b.Value(), b.N())
	}

	// Remove a prefix, including past-empty behaviour on a copy.
	a.RemoveSoA(lat[:100], lon[:100])
	for _, p := range ps[:100] {
		b.Remove(p)
	}
	if !latLonBitsEq(a.Value(), b.Value()) || a.N() != b.N() {
		t.Fatalf("RemoveSoA = %v (n=%d), scalar = %v (n=%d)", a.Value(), a.N(), b.Value(), b.N())
	}
	a.RemoveSoA(lat, lon) // drains to empty mid-slice
	for _, p := range ps {
		b.Remove(p)
	}
	if !latLonBitsEq(a.Value(), b.Value()) || a.N() != b.N() {
		t.Fatalf("RemoveSoA drain = %v (n=%d), scalar = %v (n=%d)", a.Value(), a.N(), b.Value(), b.N())
	}

	if got := CentroidSoA(nil, nil); !got.IsZero() {
		t.Fatalf("CentroidSoA(empty) = %v, want zero", got)
	}
}

// FuzzBatchKernelsBitIdentical fuzzes single pairs through every batch
// kernel: whatever coordinates the fuzzer invents (city-scale seeds,
// antipodal seeds, NaN/Inf garbage), batch and scalar must agree bit
// for bit.
func FuzzBatchKernelsBitIdentical(f *testing.F) {
	f.Add(47.6062, -122.3321, 47.6097, -122.3331, 0.25)  // city scale
	f.Add(47.6062, -122.3321, -47.6062, 57.6679, 0.5)    // antipodal
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0)                       // degenerate
	f.Add(89.9999, 179.9999, -89.9999, -179.9999, 0.999) // pole-to-pole
	f.Fuzz(func(t *testing.T, lat1, lon1, lat2, lon2, fr float64) {
		p := LatLon{Lat: lat1, Lon: lon1}
		q := LatLon{Lat: lat2, Lon: lon2}
		out := []LatLon{{}}
		InterpolateBatch(out, p, q, []float64{fr})
		if want := Interpolate(p, q, fr); !latLonBitsEq(out[0], want) {
			t.Fatalf("InterpolateBatch = %v, scalar = %v", out[0], want)
		}
		pr := NewProjection(p)
		got := []LatLon{q}
		pr.OffsetBatch(got, []float64{lat2}, []float64{lon2})
		if want := pr.Offset(q, lat2, lon2); !latLonBitsEq(got[0], want) {
			t.Fatalf("OffsetBatch = %v, scalar = %v", got[0], want)
		}
	})
}

func TestBatchKernelLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	InterpolateBatch(make([]LatLon, 2), LatLon{}, LatLon{}, make([]float64, 3))
}
