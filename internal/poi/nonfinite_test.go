package poi

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// pinnedStay is an emitted stay as the extractors produced it before
// their radius tests took a fast path: times as seconds after start,
// the centroid as raw float bits, so a NaN's payload is pinned too.
type pinnedStay struct {
	enter, exit int64 // seconds after start
	n           int
	lat, lon    uint64 // math.Float64bits
}

func (p pinnedStay) String() string {
	return fmt.Sprintf("{%d, %d, %d, %#x, %#x}", p.enter, p.exit, p.n, p.lat, p.lon)
}

func pin(s StayPoint) pinnedStay {
	return pinnedStay{
		enter: int64(s.Enter.Sub(start) / time.Second),
		exit:  int64(s.Exit.Sub(start) / time.Second),
		n:     s.NPoints,
		lat:   math.Float64bits(s.Pos.Lat),
		lon:   math.Float64bits(s.Pos.Lon),
	}
}

// sparseTrace is two two-hour stays joined by a 3 km walk, one fix
// every 6 minutes. The extractor's windows then hold two fixes spanning
// more than a window, so a stay entered on a NaN distance can last
// MinVisit and be emitted.
func sparseTrace() *builder {
	b := newBuilder(origin, 6*time.Minute, 11)
	b.stay(2*time.Hour, 8).walk(placeAt(90, 3000), 1.4).stay(2*time.Hour, 8)
	return b
}

// nonFiniteTrace is the trace gen builds with one coordinate of fix
// at replaced by v. A NaN or infinite coordinate makes every centroid
// it enters, and every distance from such a centroid, NaN; then both
// `>= r` and `<= r` read false, which is not what `!(< r)` or `!(> r)`
// read.
func nonFiniteTrace(gen func() *builder, at int, lat bool, v float64) *builder {
	b := gen()
	if lat {
		b.pts[at].Pos.Lat = v
	} else {
		b.pts[at].Pos.Lon = v
	}
	return b
}

// TestNonFiniteFixesPinned feeds traces holding one NaN or infinite
// coordinate, in a stay or on a walk, through both extractors and
// compares every emitted stay with the one recorded before the radius
// tests had a fast path.
func TestNonFiniteFixesPinned(t *testing.T) {
	cases := []struct {
		name      string
		trace     func() *builder
		at        int
		lat       bool
		v         float64
		buffer    []pinnedStay
		stayPoint []pinnedStay
	}{
		{
			name: "NaN latitude in a stay", trace: parkTrace, at: 120, lat: true, v: math.NaN(),
			buffer: []pinnedStay{
				{1410, 2345, 187, 0x4043f4313d0fa104, 0x405d1a12c810c0ab},
				{3140, 4970, 366, 0x4043f338a1b3cd0d, 0x405d1aa82837c96d},
				{5595, 6395, 161, 0x4043f3bbfd90c037, 0x405d1a13c7b70bbc},
			},
			stayPoint: []pinnedStay{
				{605, 1235, 127, 0x4043f3bd4ef79f89, 0x405d1a12dd33f0e5},
				{1480, 2435, 192, 0x4043f43266010d9f, 0x405d1a12f1f5701d},
				{3200, 5075, 376, 0x4043f33841a233e4, 0x405d1aa84c9817bc},
				{5640, 6395, 152, 0x4043f3bc9c534288, 0x405d1a1314733013},
			},
		},
		{
			name: "NaN latitude at a stay's end", trace: parkTrace, at: 238, lat: true, v: math.NaN(),
			buffer: []pinnedStay{
				{0, 1010, 202, 0x7ff8000000000001, 0x405d1a12dad6f519},
				{1410, 2345, 187, 0x4043f4313d0fa104, 0x405d1a12c810c0ab},
				{3140, 4970, 366, 0x4043f338a1b3cd0d, 0x405d1aa82837c96d},
				{5595, 6395, 161, 0x4043f3bbfd90c037, 0x405d1a13c7b70bbc},
			},
			stayPoint: []pinnedStay{
				{0, 1185, 238, 0x4043f3bce55d1e94, 0x405d1a12d6065fe2},
				{1475, 2440, 194, 0x4043f4324cba4939, 0x405d1a12fc75dec1},
				{3205, 5070, 374, 0x4043f33836831065, 0x405d1aa856b0cc7f},
				{5690, 6395, 142, 0x4043f3bcc0faca4e, 0x405d1a12ea616326},
			},
		},
		{
			name: "NaN longitude on a walk", trace: parkTrace, at: 260, lat: false, v: math.NaN(),
			buffer: []pinnedStay{
				{0, 1120, 224, 0x4043f3bce7bc76b1, 0x7ff8000000000001},
				{1410, 2345, 187, 0x4043f4313d0fa104, 0x405d1a12c810c0ab},
				{3140, 4970, 366, 0x4043f338a1b3cd0d, 0x405d1aa82837c96d},
				{5595, 6395, 161, 0x4043f3bbfd90c037, 0x405d1a13c7b70bbc},
			},
			stayPoint: []pinnedStay{
				{0, 1240, 249, 0x4043f3bd2f3748aa, 0x405d1a12d626150d},
				{1465, 2440, 196, 0x4043f43235e2eae5, 0x405d1a12fc153054},
				{3205, 5070, 374, 0x4043f33836831065, 0x405d1aa856b0cc7f},
				{5690, 6395, 142, 0x4043f3bcc0faca4e, 0x405d1a12ea616326},
			},
		},
		{
			name: "+Inf latitude in a stay", trace: parkTrace, at: 380, lat: true, v: math.Inf(1),
			buffer: []pinnedStay{
				{0, 1145, 229, 0x4043f3bce5ef8715, 0x405d1a12d7183a25},
				{3140, 4970, 366, 0x4043f338a1b3cd0d, 0x405d1aa82837c96d},
				{5595, 6395, 161, 0x4043f3bbfd90c037, 0x405d1a13c7b70bbc},
			},
			stayPoint: []pinnedStay{
				{0, 1240, 249, 0x4043f3bd2f3748aa, 0x405d1a12d626150d},
				{3195, 5080, 378, 0x4043f3384e5cab74, 0x405d1aa841343e92},
				{5645, 6395, 151, 0x4043f3bca66b2934, 0x405d1a13090cad6e},
			},
		},
		{
			name: "-Inf longitude in a stay", trace: parkTrace, at: 700, lat: false, v: math.Inf(-1),
			buffer: []pinnedStay{
				{0, 1145, 229, 0x4043f3bce5ef8715, 0x405d1a12d7183a25},
				{1410, 2345, 187, 0x4043f4313d0fa104, 0x405d1a12c810c0ab},
				{3505, 4965, 292, 0x4043f3380d800fa3, 0x405d1aa87a56e882},
				{5595, 6395, 161, 0x4043f3bbfd90c037, 0x405d1a13c7b70bbc},
			},
			stayPoint: []pinnedStay{
				{0, 1240, 249, 0x4043f3bd2f3748aa, 0x405d1a12d626150d},
				{1485, 2430, 190, 0x4043f4327b076232, 0x405d1a12e875590c},
				{3505, 5055, 311, 0x4043f338215178d3, 0x405d1aa866d52eb7},
				{5660, 6395, 148, 0x4043f3bcbad8e871, 0x405d1a12f1f7b1a6},
			},
		},
		{
			name: "sparse, NaN latitude on the first fix", trace: sparseTrace, at: 0, lat: true, v: math.NaN(),
			buffer: []pinnedStay{
				{0, 720, 2, 0x7ff8000000000001, 0x405d1a12c72d534c},
				{1080, 7200, 17, 0x4043f3bcf5e3135c, 0x405d1a12bbc1218e},
				{9360, 16920, 22, 0x4043f3bcd0ce3e1a, 0x405d1c52cf1f5bff},
			},
			stayPoint: []pinnedStay{
				{360, 7200, 20, 0x4043f3bcf6f933db, 0x405d1a12b4a3886d},
				{9360, 16920, 22, 0x4043f3bcd0ce3e1a, 0x405d1c52cf1f5bff},
			},
		},
		{
			name: "sparse, +Inf longitude in a stay", trace: sparseTrace, at: 10, lat: false, v: math.Inf(1),
			buffer: []pinnedStay{
				{0, 3240, 9, 0x4043f3bd3996c837, 0xfff8000000000000},
				{3960, 7200, 9, 0x4043f3bcf7ebd6d5, 0x405d1a12db78aceb},
				{9360, 16920, 22, 0x4043f3bcd0ce3e1a, 0x405d1c52cf1f5bff},
			},
			stayPoint: []pinnedStay{
				{0, 3240, 10, 0x4043f3bd2140368f, 0x405d1a12b5f8d2b6},
				{3960, 7200, 10, 0x4043f3bcf61c385a, 0x405d1a12dcfe7b05},
				{9360, 16920, 22, 0x4043f3bcd0ce3e1a, 0x405d1c52cf1f5bff},
			},
		},
		{
			name: "sparse, NaN latitude on a walk", trace: sparseTrace, at: 23, lat: true, v: math.NaN(),
			buffer: []pinnedStay{
				{0, 7200, 20, 0x4043f3bd0a6ff55b, 0x405d1a12bc487fa2},
				{7920, 8640, 2, 0x7ff8000000000001, 0x405d1b02efa09ade},
				{9360, 16920, 22, 0x4043f3bcd0ce3e1a, 0x405d1c52cf1f5bff},
			},
			stayPoint: []pinnedStay{
				{0, 7200, 21, 0x4043f3bd08b177ad, 0x405d1a12be7e51a5},
				{9360, 16920, 22, 0x4043f3bcd0ce3e1a, 0x405d1c52cf1f5bff},
			},
		},
		{
			name: "sparse, -Inf latitude in a stay", trace: sparseTrace, at: 30, lat: true, v: math.Inf(-1),
			buffer: []pinnedStay{
				{0, 7200, 20, 0x4043f3bd0a6ff55b, 0x405d1a12bc487fa2},
				{9360, 10440, 3, 0xfff8000000000000, 0x405d1c5327d3a2dd},
				{10800, 11520, 2, 0xfff0000000000000, 0x405d1c530eeaaae6},
				{11880, 16920, 15, 0x4043f3bcd072a08e, 0x405d1c52ae0feb3d},
			},
			stayPoint: []pinnedStay{
				{0, 7200, 21, 0x4043f3bd08b177ad, 0x405d1a12be7e51a5},
				{9360, 10440, 4, 0x4043f3bcd93a590e, 0x405d1c53321a9f6f},
				{11160, 16920, 17, 0x4043f3bcd15af703, 0x405d1c52b3f121ee},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pts := nonFiniteTrace(c.trace, c.at, c.lat, c.v).pts
			var buffer, stayPoint []pinnedStay
			ex, err := NewExtractor(DefaultParams(), func(s StayPoint) { buffer = append(buffer, pin(s)) })
			if err != nil {
				t.Fatal(err)
			}
			sp, err := NewStayPointExtractor(DefaultParams(), func(s StayPoint) { stayPoint = append(stayPoint, pin(s)) })
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				if err := ex.Feed(p); err != nil {
					t.Fatal(err)
				}
				if err := sp.Feed(p); err != nil {
					t.Fatal(err)
				}
			}
			ex.Flush()
			ex.Release()
			sp.Flush()
			comparePinned(t, "buffer", buffer, c.buffer)
			comparePinned(t, "stay-point", stayPoint, c.stayPoint)
		})
	}
}

func comparePinned(t *testing.T, name string, got, want []pinnedStay) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d stays %v, pinned %d %v", name, len(got), got, len(want), want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: stay %d is %v, pinned %v", name, i, got[i], want[i])
		}
	}
}
