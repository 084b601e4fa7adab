package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestNilInstrumentsNoOp(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	h.Timer().Stop()
	if h.Count() != 0 || h.Sum() != 0 || h.Buckets() != nil {
		t.Fatal("nil histogram recorded something")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	h, err := newHistogram([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// One below the first bound, one exactly on a bound (le semantics:
	// belongs to that bucket), one between bounds, one past the last.
	for _, v := range []float64{0.5, 2, 3, 100} {
		h.Observe(v)
	}
	want := []Bucket{
		{Bound: 1, Count: 1},
		{Bound: 2, Count: 2},
		{Bound: 4, Count: 3},
		{Bound: math.Inf(1), Count: 4},
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if diff := h.Sum() - 105.5; math.Abs(diff) > 1e-9 {
		t.Fatalf("sum = %v, want 105.5", h.Sum())
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{
		nil,
		{},
		{1, 1},
		{2, 1},
		{math.NaN()},
		{math.Inf(1)},
	} {
		if _, err := newHistogram(bounds); err == nil {
			t.Fatalf("bounds %v accepted", bounds)
		}
	}
}

func TestTimerObservesElapsedSeconds(t *testing.T) {
	h, err := newHistogram([]float64{3600})
	if err != nil {
		t.Fatal(err)
	}
	tm := h.Timer()
	time.Sleep(time.Millisecond)
	tm.Stop()
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if s := h.Sum(); s <= 0 || s > 60 {
		t.Fatalf("implausible elapsed seconds %v", s)
	}
}

func TestExpBuckets(t *testing.T) {
	if len(DefLatencyBuckets) == 0 {
		t.Fatal("empty default buckets")
	}
	if _, err := newHistogram(DefLatencyBuckets); err != nil {
		t.Fatalf("default buckets invalid: %v", err)
	}
}

// TestConcurrentUpdates hammers one counter, gauge and histogram from
// many goroutines; run under -race by make race / CI, and the final
// totals must be exact because every update is atomic.
func TestConcurrentUpdates(t *testing.T) {
	const goroutines, each = 16, 1000
	var c Counter
	var g Gauge
	h, err := newHistogram([]float64{0.5, 1.5, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(float64(j % 4))
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != goroutines*each {
		t.Fatalf("counter = %d, want %d", c.Value(), goroutines*each)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != goroutines*each {
		t.Fatalf("histogram count = %d, want %d", h.Count(), goroutines*each)
	}
	// 0,1,2,3 repeat evenly: sum is 1.5 per observation on average.
	if want := 1.5 * goroutines * each; math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
	buckets := h.Buckets()
	if last := buckets[len(buckets)-1]; last.Count != goroutines*each {
		t.Fatalf("+Inf bucket = %d, want %d", last.Count, goroutines*each)
	}
}
