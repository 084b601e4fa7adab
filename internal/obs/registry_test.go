package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("requests_total")
	c2 := r.Counter("requests_total")
	if c1 != c2 {
		t.Fatal("same name produced two counters")
	}
	g1 := r.Gauge("depth")
	if g1 != r.Gauge("depth") {
		t.Fatal("same name produced two gauges")
	}
	h1 := r.Histogram("latency_seconds", DefLatencyBuckets)
	if h1 != r.Histogram("latency_seconds", nil) {
		t.Fatal("same name produced two histograms")
	}
	if r.Tracer() != r.Tracer() {
		t.Fatal("tracer identity unstable")
	}
}

func TestNilRegistryHandsOutNilInstruments(t *testing.T) {
	var r *Registry
	if r.Counter("c") != nil || r.Gauge("g") != nil ||
		r.Histogram("h", DefLatencyBuckets) != nil || r.Tracer() != nil {
		t.Fatal("nil registry produced a live instrument")
	}
}

// mustPanic runs fn on its own goroutine and fails the test unless fn
// panics. A call still running after 5 s fails the test too, so a
// misuse path that deadlocks (a registry method re-locking its own
// mutex) fails in seconds instead of at the test binary's timeout.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	panicked := make(chan bool, 1)
	go func() {
		defer func() { panicked <- recover() != nil }()
		fn()
	}()
	select {
	case ok := <-panicked:
		if !ok {
			t.Fatalf("%s did not panic", name)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s", name)
	}
}

func TestRegistryMisusePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("taken")
	mustPanic(t, "invalid name", func() { r.Counter("bad name!") })
	mustPanic(t, "empty name", func() { r.Gauge("") })
	mustPanic(t, "kind conflict gauge", func() { r.Gauge("taken") })
	mustPanic(t, "kind conflict histogram", func() { r.Histogram("taken", DefLatencyBuckets) })
	mustPanic(t, "bad bounds", func() { r.Histogram("hist", []float64{2, 1}) })
	r.Histogram("hist_ok", DefLatencyBuckets)
	mustPanic(t, "kind conflict counter", func() { r.Counter("hist_ok") })
}

func TestWriteJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Add(3)
	r.Gauge("depth").Set(-2)
	r.Histogram("lat", []float64{1, 2}).Observe(1.5)
	r.Tracer().Start("s").End()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
		Hists    map[string]struct {
			Count   uint64  `json:"count"`
			Sum     float64 `json:"sum"`
			Buckets []struct {
				LE    string `json:"le"`
				Count uint64 `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
		Spans int `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Counters["hits_total"] != 3 {
		t.Fatalf("counters = %v", doc.Counters)
	}
	if doc.Gauges["depth"] != -2 {
		t.Fatalf("gauges = %v", doc.Gauges)
	}
	h := doc.Hists["lat"]
	if h.Count != 1 || h.Sum != 1.5 {
		t.Fatalf("histogram = %+v", h)
	}
	if len(h.Buckets) != 3 || h.Buckets[2].LE != "+Inf" || h.Buckets[1].Count != 1 {
		t.Fatalf("buckets = %+v", h.Buckets)
	}
	if doc.Spans != 1 {
		t.Fatalf("spans = %d, want 1", doc.Spans)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Inc()
	r.Counter("a_total").Inc()
	r.Gauge("depth").Set(4)
	r.Histogram("lat_seconds", []float64{0.5}).Observe(0.25)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_total counter\na_total 1\n",
		"# TYPE b_total counter\nb_total 1\n",
		"# TYPE depth gauge\ndepth 4\n",
		"# TYPE lat_seconds histogram\n",
		"lat_seconds_bucket{le=\"0.5\"} 1\n",
		"lat_seconds_bucket{le=\"+Inf\"} 1\n",
		"lat_seconds_sum 0.25\n",
		"lat_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Counters are emitted name-sorted for deterministic scrapes.
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Fatal("counters not sorted")
	}
}

// failWriter errors after the first write, exercising render error
// propagation.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("sink closed")
}

func TestWriteErrorsPropagate(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	if err := r.WriteProm(&failWriter{}); err == nil {
		t.Fatal("WriteProm swallowed the sink error")
	}
	if err := r.WriteJSON(&failWriter{}); err == nil {
		t.Fatal("WriteJSON swallowed the sink error")
	}
	if err := r.Tracer().WriteJSON(&failWriter{}); err == nil {
		t.Fatal("Tracer.WriteJSON swallowed the sink error")
	}
}
