package poi

import (
	"testing"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/trace"
)

func TestStayPointExtractorValidation(t *testing.T) {
	emit := func(StayPoint) {}
	if _, err := NewStayPointExtractor(Params{Radius: -1, MinVisit: time.Minute}, emit); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, err := NewStayPointExtractor(DefaultParams(), nil); err == nil {
		t.Fatal("nil emit accepted")
	}
}

func TestStayPointExtractorBasic(t *testing.T) {
	home := origin
	work := placeAt(90, 3000)
	b := newBuilder(home, time.Second, 31).
		stay(20*time.Minute, 5).
		walk(work, 1.4).
		stay(20*time.Minute, 5)
	stays, err := extractStayPoints(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 2 {
		t.Fatalf("extracted %d stays, want 2", len(stays))
	}
	if geo.Distance(stays[0].Pos, home) > 30 || geo.Distance(stays[1].Pos, work) > 30 {
		t.Error("stay centroids off")
	}
}

func TestStayPointExtractorAgreesWithBufferOnCleanTrace(t *testing.T) {
	// On a clean trace both extractors should find the same places;
	// this is the ablation's sanity anchor.
	b := newBuilder(origin, time.Second, 32)
	for i := 0; i < 4; i++ {
		b.walk(placeAt(float64(i*90), 2500), 1.4).stay(25*time.Minute, 5)
	}
	buffer, err := Extract(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := extractStayPoints(trace.NewSliceSource(b.pts), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(buffer) != len(baseline) {
		t.Fatalf("buffer found %d, baseline %d", len(buffer), len(baseline))
	}
	for i := range buffer {
		if geo.Distance(buffer[i].Pos, baseline[i].Pos) > 60 {
			t.Errorf("stay %d: extractors disagree by %v m", i, geo.Distance(buffer[i].Pos, baseline[i].Pos))
		}
	}
}

func TestStayPointExtractorShortStopIgnored(t *testing.T) {
	b := newBuilder(origin, time.Second, 33).
		walk(placeAt(90, 1000), 1.4).
		stay(4*time.Minute, 5).
		walk(placeAt(90, 2000), 1.4)
	stays, err := extractStayPoints(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 0 {
		t.Fatalf("short stop became a stay: %v", stays)
	}
}

func TestStayPointExtractorGapSplits(t *testing.T) {
	b := newBuilder(origin, time.Second, 34).
		stay(20*time.Minute, 5).
		gap(13*time.Hour).
		stay(20*time.Minute, 5)
	stays, err := extractStayPoints(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 2 {
		t.Fatalf("extracted %d stays, want 2", len(stays))
	}
}

func TestStayPointExtractorOutOfOrder(t *testing.T) {
	ex, err := NewStayPointExtractor(DefaultParams(), func(StayPoint) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Feed(trace.Point{Pos: origin, T: start}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Feed(trace.Point{Pos: origin, T: start.Add(-time.Minute)}); err == nil {
		t.Fatal("out-of-order accepted")
	}
}

func TestStayPointExtractorTrailingFlush(t *testing.T) {
	b := newBuilder(origin, time.Second, 35).stay(15*time.Minute, 5)
	stays, err := extractStayPoints(b.source(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 1 {
		t.Fatalf("trailing stay not flushed: %d", len(stays))
	}
}

// extractStayPoints runs the stay-point baseline over an entire source.
func extractStayPoints(src trace.Source, params Params) ([]StayPoint, error) {
	var out []StayPoint
	ex, err := NewStayPointExtractor(params, func(s StayPoint) { out = append(out, s) })
	if err != nil {
		return nil, err
	}
	if err := trace.ForEach(src, ex.Feed); err != nil {
		return nil, err
	}
	ex.Flush()
	return out, nil
}
