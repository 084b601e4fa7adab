package stats

import (
	"sort"
)

// Histogram is a count histogram over string-keyed categories. Both of
// the paper's user profiles are histograms of this shape:
//
//   - pattern 1: key = canonical place (region) ID, value = visit count;
//   - pattern 2: key = movement pattern "place_i→place_j", value = the
//     number of times the transition happened.
//
// The zero value is an empty histogram ready for use.
type Histogram struct {
	counts map[string]float64
	total  float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[string]float64)}
}

// Add increments the count of key by w (typically 1). Non-positive
// weights are ignored.
func (h *Histogram) Add(key string, w float64) {
	if w <= 0 {
		return
	}
	if h.counts == nil {
		h.counts = make(map[string]float64)
	}
	h.counts[key] += w
	h.total += w
}

// Inc increments the count of key by one.
func (h *Histogram) Inc(key string) { h.Add(key, 1) }

// Count returns the count of key, zero if absent.
func (h *Histogram) Count(key string) float64 {
	return h.counts[key]
}

// Total returns the sum of all counts.
func (h *Histogram) Total() float64 { return h.total }

// Len returns the number of distinct keys.
func (h *Histogram) Len() int { return len(h.counts) }

// Keys returns the keys in sorted order for deterministic iteration.
func (h *Histogram) Keys() []string {
	keys := make([]string, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Reset empties the histogram in place, retaining allocated capacity.
func (h *Histogram) Reset() {
	for k := range h.counts {
		delete(h.counts, k)
	}
	h.total = 0
}

// Frozen is an immutable snapshot of a Histogram with its keys in
// ascending order: the form CompareHistograms aligns on. Freezing sorts
// the keys once; each comparison then merge-joins two frozen forms in
// time linear in their key counts, so a reference frozen once serves
// any number of tests without sorting again. The zero value is an
// empty histogram.
type Frozen struct {
	keys   []string  // ascending, distinct
	counts []float64 // counts[i] is the count of keys[i]
	total  float64
}

// Freeze returns the histogram's frozen snapshot. The total is the
// histogram's running sum, not a re-summation, so it carries the same
// bits as Total.
func (h *Histogram) Freeze() Frozen {
	keys := h.Keys()
	counts := make([]float64, len(keys))
	for i, k := range keys {
		counts[i] = h.counts[k]
	}
	return Frozen{keys: keys, counts: counts, total: h.total}
}

// Len returns the number of distinct keys.
func (f Frozen) Len() int { return len(f.keys) }

// Total returns the sum of all counts.
func (f Frozen) Total() float64 { return f.total }

// Scaled returns a copy with every count and the total multiplied by
// factor (which must be positive; otherwise f is returned unscaled, as
// it is for factor 1). Scaling the observed histogram to an effective
// sample size is how the privacy model applies a design-effect
// correction for autocorrelated samples. The copy shares f's keys.
func (f Frozen) Scaled(factor float64) Frozen {
	if factor <= 0 || factor == 1 {
		return f
	}
	counts := make([]float64, len(f.counts))
	for i, c := range f.counts {
		counts[i] = c * factor
	}
	return Frozen{keys: f.keys, counts: counts, total: f.total * factor}
}

// aligned merge-joins obs and exp into observed-vs-expected count
// vectors over the union of their keys, in ascending key order. Keys
// present only in obs get expected count 0 (and are then subject to
// ChiSquareTest's zero-expectation skipping); keys present only in exp
// get observed count 0.
func aligned(obs, exp Frozen) (observed, expected []float64) {
	n := len(obs.keys) + len(exp.keys)
	buf := make([]float64, 2*n) // zeroed: the side a key is absent from reads 0
	observed, expected = buf[:n:n], buf[n:]
	k := 0
	for i, j := 0, 0; i < len(obs.keys) || j < len(exp.keys); k++ {
		switch {
		case j == len(exp.keys) || i < len(obs.keys) && obs.keys[i] < exp.keys[j]:
			observed[k] = obs.counts[i]
			i++
		case i == len(obs.keys) || exp.keys[j] < obs.keys[i]:
			expected[k] = exp.counts[j]
			j++
		default:
			observed[k], expected[k] = obs.counts[i], exp.counts[j]
			i, j = i+1, j+1
		}
	}
	return observed[:k], expected[:k]
}

// CompareHistograms runs the chi-square goodness-of-fit test of obs
// against the reference profile exp. smoothing, when positive, is added
// to every expected category (Laplace smoothing) so that observations
// in categories absent from the profile count as evidence of mismatch
// instead of being silently dropped.
//
// poolShare, when positive, applies the standard minimum-expected-count
// practice: categories holding less than poolShare of the expected mass
// are pooled into a single residual category (on both sides) before the
// test, which keeps the degrees of freedom honest when the reference
// has a long tail of rare categories.
func CompareHistograms(obs, exp Frozen, smoothing, poolShare float64, tail Tail) (GoodnessOfFit, error) {
	observed, expected := aligned(obs, exp)
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

// poolSmallCategories merges every category whose expected share is
// below minShare into one residual category appended at the end.
func poolSmallCategories(observed, expected []float64, minShare float64) (obs, exp []float64) {
	var expTotal float64
	for _, e := range expected {
		expTotal += e
	}
	if expTotal <= 0 {
		return observed, expected
	}
	cut := expTotal * minShare
	var poolObs, poolExp float64
	for i := range expected {
		if expected[i] < cut {
			poolObs += observed[i]
			poolExp += expected[i]
			continue
		}
		obs = append(obs, observed[i])
		exp = append(exp, expected[i])
	}
	if poolExp > 0 || poolObs > 0 {
		obs = append(obs, poolObs)
		exp = append(exp, poolExp)
	}
	return obs, exp
}
