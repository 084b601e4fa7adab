// Package obs is the repository's observability layer: atomic
// counters and gauges, fixed-bucket latency histograms, lightweight
// span tracing, and a registry that renders everything as
// expvar-style JSON or Prometheus text exposition and serves it over
// HTTP next to net/http/pprof.
//
// The package is stdlib-only and built around one invariant, spelled
// out in DESIGN.md §8: obs is observe-only. Instrumentation reads the
// pipeline, it never feeds back into it — no instrument draws
// randomness, touches simulated time, or returns a value the
// instrumented code branches on, so enabling obs cannot change a
// single emitted bit.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Tracer or *Span are allocation-free no-ops. Wiring
// therefore needs no "enabled" branches — instrumented code holds
// possibly-nil instrument pointers and calls them unconditionally,
// which keeps the disabled fast path to one predictable branch per
// call. Wall-clock reads happen only inside this package (Timer,
// Span), keeping the deterministic simulation packages free of
// time.Now.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero
// value is ready to use; a nil *Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depths, pool sizes).
// The zero value is ready to use; a nil *Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets (cumulative upper
// bounds, Prometheus "le" semantics: an observation lands in the
// first bucket whose bound is >= the value, or the implicit +Inf
// bucket past the last bound). All updates are atomic; concurrent
// Observe calls never lock. A nil *Histogram no-ops.
type Histogram struct {
	bounds []float64 // sorted ascending, immutable after construction
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Uint64
}

// newHistogram builds a histogram over the given bucket upper bounds.
func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("obs: non-finite bucket bound %v", b)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("obs: bucket bounds not strictly increasing at %v", b)
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)),
	}
	return h, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if i := sort.SearchFloat64s(h.bounds, v); i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values; 0 on a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bucket is one snapshot bucket: the cumulative count of observations
// at or below Bound (Bound is +Inf for the last bucket).
type Bucket struct {
	Bound float64
	Count uint64
}

// Buckets returns a cumulative snapshot including the +Inf bucket.
// The snapshot is not atomic across buckets; concurrent observers can
// land between loads, which only ever understates later buckets.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	out := make([]Bucket, 0, len(h.bounds)+1)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, Bucket{Bound: b, Count: cum})
	}
	out = append(out, Bucket{Bound: math.Inf(1), Count: cum + h.inf.Load()})
	return out
}

// Timer measures one duration into a histogram of seconds. It is a
// value type: starting and stopping a timer on a nil histogram reads
// no clock and allocates nothing, which is what keeps disabled
// instrumentation off the hot path entirely.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Timer starts a timer; Stop records the elapsed seconds.
func (h *Histogram) Timer() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop observes the elapsed time. Safe on the zero Timer.
func (t Timer) Stop() {
	if t.h == nil {
		return
	}
	t.h.Observe(time.Since(t.start).Seconds())
}

// DefLatencyBuckets spans 100µs to 30s, the range of per-user tasks
// and whole experiment stages in this repository.
var DefLatencyBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30,
}
