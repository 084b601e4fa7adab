package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestSpanParentLinkage(t *testing.T) {
	var tr Tracer
	root := tr.Start("root")
	child := root.Child("child")
	grand := child.Child("grand")
	grand.End()
	child.End()
	root.SetAttr("k", "v")
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	// Spans come back in start order regardless of end order.
	if spans[0].Name != "root" || spans[1].Name != "child" || spans[2].Name != "grand" {
		t.Fatalf("bad order: %q %q %q", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[0].Parent != 0 {
		t.Fatalf("root parent = %d, want 0", spans[0].Parent)
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("child parent = %d, want %d", spans[1].Parent, spans[0].ID)
	}
	if spans[2].Parent != spans[1].ID {
		t.Fatalf("grand parent = %d, want %d", spans[2].Parent, spans[1].ID)
	}
	if spans[0].Attrs["k"] != "v" {
		t.Fatalf("attrs = %v", spans[0].Attrs)
	}
	for _, s := range spans {
		if s.DurationNS < 0 {
			t.Fatalf("span %q has negative duration", s.Name)
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	var tr Tracer
	s := tr.Start("once")
	s.End()
	s.End()
	s.SetAttr("late", "ignored") // after End: dropped, not recorded
	if got := tr.Spans(); len(got) != 1 {
		t.Fatalf("%d records after double End, want 1", len(got))
	} else if got[0].Attrs != nil {
		t.Fatalf("post-End attr recorded: %v", got[0].Attrs)
	}
}

func TestNilTracerChainNoOps(t *testing.T) {
	var tr *Tracer
	s := tr.Start("ghost")
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	c := s.Child("ghost-child")
	c.SetAttr("k", "v")
	c.End()
	s.End()
	if tr.Spans() != nil {
		t.Fatal("nil tracer has spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"spans": []`) {
		t.Fatalf("nil tracer JSON not schema-valid: %s", buf.String())
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	var tr Tracer
	root := tr.Start("pipeline")
	root.Child("stage").End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var art struct {
		Schema string       `json:"schema"`
		Spans  []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &art); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if art.Schema != "locwatch-trace/v1" {
		t.Fatalf("schema = %q", art.Schema)
	}
	if len(art.Spans) != 2 {
		t.Fatalf("%d spans, want 2", len(art.Spans))
	}
	if art.Spans[1].Parent != art.Spans[0].ID {
		t.Fatal("parent linkage lost in JSON")
	}
}

// TestConcurrentSpans opens and ends spans from many goroutines, each
// of which also annotates the shared root; IDs must stay unique, every
// span must be recorded, and the root must keep every annotation
// (-race covers the memory model).
func TestConcurrentSpans(t *testing.T) {
	var tr Tracer
	root := tr.Start("root")
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// First, before the tracer's lock orders this worker after
			// another.
			root.SetAttr(fmt.Sprint("worker", i), "b")
			s := root.Child("worker")
			s.SetAttr("a", "b")
			s.End()
		}()
	}
	wg.Wait()
	root.End()
	spans := tr.Spans()
	if len(spans) != n+1 {
		t.Fatalf("%d spans, want %d", len(spans), n+1)
	}
	seen := map[uint64]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
		if s.Name == "worker" && s.Parent == 0 {
			t.Fatal("worker span lost its parent")
		}
		if s.Name == "root" && len(s.Attrs) != n {
			t.Fatalf("root span kept %d of %d worker attrs", len(s.Attrs), n)
		}
	}
}
