package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of the q-quantile among n samples;
// the epsilon keeps q·n from rounding up past an exact integer.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// quantile is the nearest-rank q-quantile of xs (0 for an empty set):
// the smallest sample with at least a q share of the samples at or
// below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), q)-1]
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything.
const minBeyond = 10

// tailQuantile picks the percentile a tail latency is reported at for
// n samples: p99 when at least ten samples lie beyond it, else p90
// under the same rule, else the maximum.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.9} {
		if n-rank(n, q) >= minBeyond {
			return q
		}
	}
	return 1
}

// tail reports xs at tailQuantile(len(xs)).
func tail(xs []float64) float64 {
	return quantile(xs, tailQuantile(len(xs)))
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads read the same here as in any script that checks
// the recorded runs. It needs at least two samples; with fewer every
// cut point is the lone sample (or 0).
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	ld := len(s)
	var out [3]float64
	if ld < 2 {
		if ld == 1 {
			out = [3]float64{s[0], s[0], s[0]}
		}
		return out
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
