package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Len() != 0 || h.Total() != 0 {
		t.Fatal("new histogram not empty")
	}
	h.Inc("a")
	h.Inc("a")
	h.Add("b", 3)
	h.Add("c", 0)  // ignored
	h.Add("c", -1) // ignored
	if h.Count("a") != 2 {
		t.Errorf("Count(a) = %v", h.Count("a"))
	}
	if h.Count("b") != 3 {
		t.Errorf("Count(b) = %v", h.Count("b"))
	}
	if h.Count("missing") != 0 {
		t.Errorf("Count(missing) = %v", h.Count("missing"))
	}
	if h.Total() != 5 {
		t.Errorf("Total = %v", h.Total())
	}
	if h.Len() != 2 {
		t.Errorf("Len = %d", h.Len())
	}
	keys := h.Keys()
	if !sort.StringsAreSorted(keys) || len(keys) != 2 {
		t.Errorf("Keys = %v", keys)
	}
}

func TestHistogramZeroValueUsable(t *testing.T) {
	var h Histogram
	h.Inc("x")
	if h.Count("x") != 1 || h.Total() != 1 {
		t.Fatal("zero-value Histogram not usable")
	}
}

func TestHistogramFreezeIndependent(t *testing.T) {
	h := NewHistogram()
	h.Add("b", 2)
	h.Add("a", 1)
	f := h.Freeze()
	h.Inc("a")
	h.Inc("c")
	if f.Len() != 2 || f.Total() != 3 {
		t.Fatalf("frozen form follows its histogram: %d keys, total %v", f.Len(), f.Total())
	}
	if len(f.keys) != 2 || f.keys[0] != "a" || f.keys[1] != "b" || f.counts[0] != 1 || f.counts[1] != 2 {
		t.Fatalf("frozen form = %v %v, want [a b] [1 2]", f.keys, f.counts)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Add("a", 5)
	h.Reset()
	if h.Len() != 0 || h.Total() != 0 || h.Count("a") != 0 {
		t.Fatal("Reset did not clear")
	}
	h.Inc("b")
	if h.Total() != 1 {
		t.Fatal("histogram unusable after Reset")
	}
}

func TestAligned(t *testing.T) {
	obs := NewHistogram()
	obs.Add("a", 1)
	obs.Add("c", 3)
	exp := NewHistogram()
	exp.Add("a", 10)
	exp.Add("b", 20)
	o, e := aligned(obs.Freeze(), exp.Freeze())
	// Union keys a, b, c in order, 0 on the side a key is absent from.
	wantO := []float64{1, 0, 3}
	wantE := []float64{10, 20, 0}
	if len(o) != 3 || len(e) != 3 {
		t.Fatalf("aligned obs=%v exp=%v, want 3 categories", o, e)
	}
	for i := range wantO {
		if o[i] != wantO[i] || e[i] != wantE[i] {
			t.Fatalf("aligned obs=%v exp=%v", o, e)
		}
	}
}

func TestAlignedTotalInvariant(t *testing.T) {
	// Property: alignment preserves both totals, whatever the key sets,
	// and the merge-join gives the union-map oracle's vectors.
	f := func(aKeys, bKeys []uint8) bool {
		obs := NewHistogram()
		exp := NewHistogram()
		for _, k := range aKeys {
			obs.Inc(string(rune('a' + k%26)))
		}
		for _, k := range bKeys {
			exp.Inc(string(rune('a' + k%26)))
		}
		o, e := aligned(obs.Freeze(), exp.Freeze())
		_, wantO, wantE := alignedOracle(obs, exp)
		if !floatsBitEq(o, wantO) || !floatsBitEq(e, wantE) {
			return false
		}
		var so, se float64
		for i := range o {
			so += o[i]
			se += e[i]
		}
		return so == obs.Total() && se == exp.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareHistogramsSelfMatch(t *testing.T) {
	h := NewHistogram()
	h.Add("home→work", 40)
	h.Add("work→home", 38)
	h.Add("home→gym", 10)
	g, err := CompareHistograms(h.Freeze(), h.Freeze(), 0, 0, TailUpper)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Match(0.05) || g.Statistic != 0 {
		t.Fatalf("histogram does not match itself: %+v", g)
	}
}

func TestCompareHistogramsSmoothingCatchesNovelKeys(t *testing.T) {
	// Without smoothing, observations in categories absent from the
	// profile are dropped; with smoothing they count as mismatch.
	obs := NewHistogram()
	obs.Add("novel", 100)
	obs.Add("a", 1)
	exp := NewHistogram()
	exp.Add("a", 50)
	exp.Add("b", 50)

	unsmoothed, err := CompareHistograms(obs.Freeze(), exp.Freeze(), 0, 0, TailUpper)
	if err != nil {
		t.Fatal(err)
	}
	smoothed, err := CompareHistograms(obs.Freeze(), exp.Freeze(), 0.5, 0, TailUpper)
	if err != nil {
		t.Fatal(err)
	}
	if smoothed.Statistic <= unsmoothed.Statistic {
		t.Fatalf("smoothing should raise the statistic: %v vs %v",
			smoothed.Statistic, unsmoothed.Statistic)
	}
	if smoothed.Match(0.05) {
		t.Fatalf("100 observations in a novel category should not match (p=%v)", smoothed.PValue)
	}
}

func TestCompareHistogramsSubsampleMatches(t *testing.T) {
	// A random subsample of a profile should still match it — the key
	// property the His_bin detector relies on.
	rng := rand.New(rand.NewSource(31))
	exp := NewHistogram()
	keys := []string{"h→w", "w→h", "h→g", "g→w", "w→r", "r→h"}
	weights := []float64{40, 38, 12, 12, 6, 6}
	for i, k := range keys {
		exp.Add(k, weights[i])
	}
	probs := NormalizeWeights(weights)
	obs := NewHistogram()
	for i := 0; i < 120; i++ {
		obs.Inc(keys[sampleIndex(rng, probs)])
	}
	g, err := CompareHistograms(obs.Freeze(), exp.Freeze(), 0.5, 0, TailUpper)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Match(0.05) {
		t.Fatalf("subsample of profile rejected: %+v", g)
	}
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{5, 1, 3, 3, 9})
	if e.N() != 5 {
		t.Errorf("N = %d", e.N())
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.2}, {2.9, 0.2}, {3, 0.6}, {5, 0.8}, {9, 1}, {100, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if e.Min() != 1 || e.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", e.Min(), e.Max())
	}
	if got := e.Mean(); math.Abs(got-4.2) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(5) != 0 || e.N() != 0 || e.Min() != 0 || e.Max() != 0 || e.Mean() != 0 || e.Quantile(0.5) != 0 {
		t.Fatal("empty ECDF misbehaves")
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	tests := []struct {
		p    float64
		want float64
	}{
		{0.1, 10}, {0.5, 50}, {0.95, 100}, {1, 100}, {0, 10}, {-1, 10}, {2, 100},
	}
	for _, tt := range tests {
		if got := e.Quantile(tt.p); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestECDFMonotone(t *testing.T) {
	f := func(sample []float64) bool {
		if len(sample) == 0 {
			return true
		}
		for i := range sample {
			if math.IsNaN(sample[i]) || math.IsInf(sample[i], 0) {
				return true
			}
		}
		e := NewECDF(sample)
		prev := -1.0
		xs, _ := e.Points()
		for _, x := range xs {
			y := e.At(x)
			if y < prev {
				return false
			}
			prev = y
		}
		return e.At(e.Max()) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 1, 2, 3})
	xs, ys := e.Points()
	wantX := []float64{1, 2, 3}
	wantY := []float64{0.5, 0.75, 1}
	if len(xs) != 3 {
		t.Fatalf("Points xs = %v", xs)
	}
	for i := range wantX {
		if xs[i] != wantX[i] || math.Abs(ys[i]-wantY[i]) > 1e-12 {
			t.Fatalf("Points = %v, %v", xs, ys)
		}
	}
}

func TestECDFTable(t *testing.T) {
	e := NewECDF([]float64{5, 15, 300})
	out := e.Table("interval(s)", []float64{10, 60, 600})
	if !strings.Contains(out, "interval(s)") || !strings.Contains(out, "0.333") {
		t.Errorf("unexpected table:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 4 {
		t.Errorf("table has %d lines, want 4", lines)
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	sample := []float64{3, 1, 2}
	e := NewECDF(sample)
	sample[0] = 100
	if e.Max() != 3 {
		t.Fatal("ECDF aliases its input slice")
	}
}

func BenchmarkCompareHistograms(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	exp := NewHistogram()
	for i := 0; i < 60; i++ {
		exp.Add(string(rune('A'+i%26))+string(rune('a'+i/26)), rng.Float64()*50+1)
	}
	f := exp.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompareHistograms(f, f, 0.5, 0, TailUpper); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHistogramScaled(t *testing.T) {
	h := NewHistogram()
	h.Add("a", 10)
	h.Add("b", 30)
	f := h.Freeze()
	s := f.Scaled(0.25)
	if s.counts[0] != 2.5 || s.counts[1] != 7.5 || s.Total() != 10 {
		t.Fatalf("Scaled(0.25): %v total %v", s.counts, s.Total())
	}
	// Original untouched.
	if f.counts[0] != 10 || f.Total() != 40 {
		t.Fatal("Scaled mutated the original")
	}
	// Factor 1 and non-positive factors return the form unscaled.
	if c := f.Scaled(1); c.Total() != 40 {
		t.Fatal("Scaled(1) changed mass")
	}
	if c := f.Scaled(0); c.Total() != 40 {
		t.Fatal("Scaled(0) should return the form unscaled")
	}
	if c := f.Scaled(-2); c.Total() != 40 {
		t.Fatal("Scaled(-2) should return the form unscaled")
	}
}

func TestCompareHistogramsPooling(t *testing.T) {
	// A reference with two big categories and many tiny ones: pooling
	// merges the tail, shrinking the degrees of freedom.
	exp := NewHistogram()
	exp.Add("big1", 500)
	exp.Add("big2", 450)
	for i := 0; i < 20; i++ {
		exp.Add(string(rune('a'+i)), 1) // 20 categories at ~0.1% each
	}
	f := exp.Freeze()

	unpooled, err := CompareHistograms(f, f, 0, 0, TailUpper)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := CompareHistograms(f, f, 0, 0.02, TailUpper)
	if err != nil {
		t.Fatal(err)
	}
	if unpooled.DF != 21 {
		t.Fatalf("unpooled DF = %d, want 21", unpooled.DF)
	}
	if pooled.DF != 2 { // big1, big2, residual pool
		t.Fatalf("pooled DF = %d, want 2", pooled.DF)
	}
	if !pooled.Match(0.05) {
		t.Fatal("identical histograms should match after pooling")
	}
}

func TestPoolingPreservesMass(t *testing.T) {
	obs := []float64{5, 1, 1, 1, 90}
	exp := []float64{50, 1, 1, 1, 47}
	pObs, pExp := poolSmallCategories(obs, exp, 0.05)
	var so, se, wo, we float64
	for i := range obs {
		wo += obs[i]
		we += exp[i]
	}
	for i := range pObs {
		so += pObs[i]
		se += pExp[i]
	}
	if so != wo || se != we {
		t.Fatalf("pooling changed mass: %v/%v vs %v/%v", so, se, wo, we)
	}
	if len(pObs) != 3 { // 50, 47, pool(1+1+1)
		t.Fatalf("pooled to %d categories, want 3", len(pObs))
	}
}

// alignedOracle is the union-map alignment CompareHistograms ran before
// frozen forms: gather both key sets in a map, sort the union, and look
// every key up on both sides. The merge-join must reproduce it bit for
// bit.
func alignedOracle(obs, exp *Histogram) (keys []string, observed, expected []float64) {
	seen := make(map[string]struct{}, obs.Len()+exp.Len())
	for k := range obs.counts {
		seen[k] = struct{}{}
	}
	for k := range exp.counts {
		seen[k] = struct{}{}
	}
	keys = make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	observed = make([]float64, len(keys))
	expected = make([]float64, len(keys))
	for i, k := range keys {
		observed[i] = obs.Count(k)
		expected[i] = exp.Count(k)
	}
	return keys, observed, expected
}

// scaledOracle is Frozen.Scaled on the map form: copy the counts, then
// multiply each count and the total by factor unless factor ≤ 0 or
// factor == 1.
func scaledOracle(h *Histogram, factor float64) *Histogram {
	c := &Histogram{counts: make(map[string]float64, len(h.counts)), total: h.total}
	for k, v := range h.counts {
		c.counts[k] = v
	}
	if factor <= 0 || factor == 1 {
		return c
	}
	for k := range c.counts {
		c.counts[k] *= factor
	}
	c.total *= factor
	return c
}

// compareOracle is CompareHistograms on the union-map alignment.
func compareOracle(obs, exp *Histogram, smoothing, poolShare float64, tail Tail) (GoodnessOfFit, error) {
	_, observed, expected := alignedOracle(obs, exp)
	if smoothing > 0 {
		for i := range expected {
			expected[i] += smoothing
		}
	}
	if poolShare > 0 {
		observed, expected = poolSmallCategories(observed, expected, poolShare)
	}
	return ChiSquareTest(observed, expected, tail)
}

// fuzzHistogram decodes spec as 3-byte entries: a key byte and a
// big-endian count in eighths. Keys are one or two letters from an
// eight-letter alphabet, so key sets overlap and a key can prefix
// another; a zero count is dropped by Add, as it is in the profiles.
func fuzzHistogram(spec []byte) *Histogram {
	h := NewHistogram()
	for ; len(spec) >= 3; spec = spec[3:] {
		k := spec[0]
		key := string([]byte{'a' + k%8, 'a' + k/8%8})[:1+int(k/64%2)]
		h.Add(key, float64(uint16(spec[1])<<8|uint16(spec[2]))/8)
	}
	return h
}

// floatsBitEq reports whether two vectors hold the same float bits.
func floatsBitEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzCompareBitIdentical fuzzes the merge-join comparison against the
// union-map oracle. For any two key sets and counts, any scale factor
// on the observed side, smoothing 0 or 0.5 and pooling off or at 2%,
// the frozen path must give the oracle's scaled total (total*factor),
// its aligned vectors, and its GoodnessOfFit and error. Floats are
// compared by their bits, which is == except that a NaN on both sides
// agrees.
func FuzzCompareBitIdentical(f *testing.F) {
	f.Add([]byte{}, []byte{}, 0.5, false, false)                                                     // empty
	f.Add([]byte{0, 0, 9, 1, 0, 30}, []byte{2, 0, 14, 67, 1, 3}, 0.25, true, false)                  // disjoint
	f.Add([]byte{0, 0, 9, 65, 0, 30, 3, 2, 0}, []byte{0, 0, 9, 65, 0, 30, 3, 2, 0}, 1.0, true, true) // identical
	f.Add([]byte{0, 0, 40, 1, 0, 16, 64, 0, 8}, []byte{}, 0.3, true, true)                           // observed only
	f.Add([]byte{}, []byte{0, 0, 40, 1, 0, 16, 64, 0, 8}, 2.0, false, true)                          // expected only
	f.Fuzz(func(t *testing.T, obsSpec, expSpec []byte, factor float64, smooth, pool bool) {
		obs, exp := fuzzHistogram(obsSpec), fuzzHistogram(expSpec)
		var smoothing, poolShare float64
		if smooth {
			smoothing = 0.5
		}
		if pool {
			poolShare = 0.02
		}

		scaled, want := obs.Freeze().Scaled(factor), scaledOracle(obs, factor)
		wantTotal := obs.Total()
		if factor > 0 && factor != 1 {
			wantTotal *= factor
		}
		if math.Float64bits(scaled.Total()) != math.Float64bits(wantTotal) ||
			math.Float64bits(want.Total()) != math.Float64bits(wantTotal) {
			t.Fatalf("scaled total %v, oracle %v, want total*factor = %v", scaled.Total(), want.Total(), wantTotal)
		}

		ref := exp.Freeze()
		gotO, gotE := aligned(scaled, ref)
		_, wantO, wantE := alignedOracle(want, exp)
		if !floatsBitEq(gotO, wantO) || !floatsBitEq(gotE, wantE) {
			t.Fatalf("aligned %v / %v, oracle %v / %v", gotO, gotE, wantO, wantE)
		}

		got, gotErr := CompareHistograms(scaled, ref, smoothing, poolShare, TailUpper)
		wantG, wantErr := compareOracle(want, exp, smoothing, poolShare, TailUpper)
		if math.Float64bits(got.Statistic) != math.Float64bits(wantG.Statistic) ||
			got.DF != wantG.DF ||
			math.Float64bits(got.PValue) != math.Float64bits(wantG.PValue) ||
			got.Tail != wantG.Tail {
			t.Fatalf("CompareHistograms = %+v, oracle %+v", got, wantG)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || errors.Is(gotErr, ErrDegenerate) != errors.Is(wantErr, ErrDegenerate) {
			t.Fatalf("CompareHistograms error %v, oracle %v", gotErr, wantErr)
		}
	})
}
