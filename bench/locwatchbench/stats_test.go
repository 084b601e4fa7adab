package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

// TestTailKeepsTenSamplesBeyond pins the percentile rule: the reported
// tail has at least ten samples above it, p99 first, then p90, then
// the maximum.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1000, 0.99, 990},
		{999, 0.9, 900},
		{100, 0.9, 90},
		{99, 1, 99},
		{6, 1, 6},
		{1, 1, 1},
	} {
		xs := seq(tc.n)
		if q := tailQuantile(tc.n); q != tc.q {
			t.Errorf("n=%d: tail quantile %v, want %v", tc.n, q, tc.q)
		}
		got := tail(xs)
		if got != tc.want {
			t.Errorf("n=%d: tail %v, want %v", tc.n, got, tc.want)
		}
		beyond := 0
		for _, x := range xs {
			if x > got {
				beyond++
			}
		}
		if tc.q < 1 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which is what reads the spread of the
// recorded runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(4), [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
