package main

import "testing"

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 85, 115, 95}
	lower := metricSpec{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput_fixes_s", Unit: "fixes/s", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"within noise", lower, steady, scaled(steady, 1.005), "same"},
		{"slower past the bound", lower, steady, scaled(steady, 1.2), "worse"},
		{"faster beyond the spread", lower, steady, scaled(steady, 0.9), "better"},
		{"slower but inside the bound", lower, steady, scaled(steady, 1.05), "same"},
		{"spread wider than the bound", lower, noisy, scaled(noisy, 0.95), "unresolved"},
		{"spread wide, every run better", lower, noisy, scaled(noisy, 0.5), "better"},
		{"higher is better", higher, steady, scaled(steady, 0.8), "worse"},
		{"higher is better, gain", higher, steady, scaled(steady, 1.2), "better"},
		{"below the absolute floor", lower, scaled(steady, 0.005), scaled(steady, 0.006), "same"},
		{"no runs", lower, nil, steady, "unresolved"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
