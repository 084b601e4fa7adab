package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"locwatch/internal/geo"
)

var t0 = time.Date(2009, 10, 11, 8, 0, 0, 0, time.UTC)

// linearPoints returns n points one second apart walking east at ~10 m/s.
func linearPoints(n int) []Point {
	origin := geo.LatLon{Lat: 39.9, Lon: 116.4}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Pos: geo.Destination(origin, 90, float64(i)*10),
			T:   t0.Add(time.Duration(i) * time.Second),
		}
	}
	return pts
}

func TestTraceAppendOrdering(t *testing.T) {
	tr := &Trace{}
	if err := tr.Append(Point{T: t0}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(Point{T: t0.Add(time.Second)}); err != nil {
		t.Fatal(err)
	}
	// Equal timestamps are allowed (multiple providers can fix at once).
	if err := tr.Append(Point{T: t0.Add(time.Second)}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(Point{T: t0.Add(-time.Second)}); err == nil {
		t.Fatal("out-of-order append should fail")
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestTraceSort(t *testing.T) {
	tr := &Trace{Points: []Point{
		{T: t0.Add(2 * time.Second)},
		{T: t0},
		{T: t0.Add(time.Second)},
	}}
	tr.Sort()
	for i := 1; i < tr.Len(); i++ {
		if tr.Points[i].T.Before(tr.Points[i-1].T) {
			t.Fatal("Sort did not order points")
		}
	}
}

func TestTraceDurationAndLength(t *testing.T) {
	tr := &Trace{Points: linearPoints(11)}
	if got := tr.Duration(); got != 10*time.Second {
		t.Errorf("Duration = %v", got)
	}
	if got := tr.PathLength(); math.Abs(got-100) > 0.1 {
		t.Errorf("PathLength = %v, want ~100", got)
	}
	empty := &Trace{}
	if empty.Duration() != 0 || empty.PathLength() != 0 {
		t.Error("empty trace should have zero duration and length")
	}
}

func TestTraceBoundingBox(t *testing.T) {
	tr := &Trace{Points: linearPoints(5)}
	b := tr.BoundingBox()
	for _, p := range tr.Points {
		if !b.Contains(p.Pos) {
			t.Fatalf("box misses %v", p.Pos)
		}
	}
}

func TestSliceSource(t *testing.T) {
	pts := linearPoints(3)
	src := NewSliceSource(pts)
	for i := 0; i < 3; i++ {
		p, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if p != pts[i] {
			t.Fatalf("point %d mismatch", i)
		}
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
	src.Reset()
	if p, err := src.Next(); err != nil || p != pts[0] {
		t.Fatal("Reset did not rewind")
	}
}

func TestCollect(t *testing.T) {
	pts := linearPoints(50)
	tr, err := Collect(NewSliceSource(pts), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 50 {
		t.Fatalf("collected %d points", tr.Len())
	}
	if _, err := Collect(NewSliceSource(pts), 10); err == nil {
		t.Fatal("limit exceeded should error")
	}
}

func TestCollectPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	src := SourceFunc(func() (Point, error) { return Point{}, boom })
	if _, err := Collect(src, 0); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestForEachAndCount(t *testing.T) {
	pts := linearPoints(7)
	n, err := Count(NewSliceSource(pts))
	if err != nil || n != 7 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	stop := errors.New("stop")
	calls := 0
	err = ForEach(NewSliceSource(pts), func(Point) error {
		calls++
		if calls == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || calls != 3 {
		t.Fatalf("ForEach stopped at %d with %v", calls, err)
	}
}

func TestSamplerInterval(t *testing.T) {
	pts := linearPoints(100) // 1 Hz for 100 s
	tests := []struct {
		interval time.Duration
		want     int
	}{
		{0, 100},               // pass-through
		{time.Second, 100},     // native rate
		{10 * time.Second, 10}, // one per 10 s: t=0,10,...,90
		{30 * time.Second, 4},  // t=0,30,60,90
		{2 * time.Minute, 1},   // only the first fix
	}
	for _, tt := range tests {
		s := NewSampler(NewSliceSource(pts), tt.interval, 0)
		n, err := Count(s)
		if err != nil {
			t.Fatal(err)
		}
		if n != tt.want {
			t.Errorf("interval %v: got %d points, want %d", tt.interval, n, tt.want)
		}
	}
}

func TestSamplerReleasesFirstFixAfterInstant(t *testing.T) {
	// Points every 5 s, sampling every 7 s: releases t=0, then the
	// first fix at or after t=7 (t=10), then at or after t=17 (t=20)...
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Point{T: t0.Add(time.Duration(i*5) * time.Second)}
	}
	s := NewSampler(NewSliceSource(pts), 7*time.Second, 0)
	var got []int
	err := ForEach(s, func(p Point) error {
		got = append(got, int(p.T.Sub(t0)/time.Second))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 10, 20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("released at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("released at %v, want %v", got, want)
		}
	}
}

func TestSamplerPhase(t *testing.T) {
	pts := linearPoints(100)
	s := NewSampler(NewSliceSource(pts), 10*time.Second, 45*time.Second)
	first, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if off := first.T.Sub(t0); off != 45*time.Second {
		t.Fatalf("first released point at +%v, want +45s", off)
	}
	n, err := Count(s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 { // 55, 65, 75, 85, 95
		t.Fatalf("remaining count = %d, want 5", n)
	}
}

func TestSamplerNegativePhaseClamped(t *testing.T) {
	pts := linearPoints(10)
	s := NewSampler(NewSliceSource(pts), 0, -time.Hour)
	n, err := Count(s)
	if err != nil || n != 10 {
		t.Fatalf("negative phase: n=%d err=%v", n, err)
	}
}

func TestHead(t *testing.T) {
	pts := linearPoints(10)
	n, err := Count(NewHead(NewSliceSource(pts), 4))
	if err != nil || n != 4 {
		t.Fatalf("Head(4) = %d, %v", n, err)
	}
	n, err = Count(NewHead(NewSliceSource(pts), 0))
	if err != nil || n != 0 {
		t.Fatalf("Head(0) = %d, %v", n, err)
	}
	n, err = Count(NewHead(NewSliceSource(pts), 100))
	if err != nil || n != 10 {
		t.Fatalf("Head(100) = %d, %v", n, err)
	}
}

func TestTimeWindow(t *testing.T) {
	pts := linearPoints(100)
	w := NewTimeWindow(NewSliceSource(pts), t0.Add(10*time.Second), t0.Add(20*time.Second))
	tr, err := Collect(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 10 {
		t.Fatalf("window kept %d points, want 10", tr.Len())
	}
	if tr.Points[0].T != t0.Add(10*time.Second) {
		t.Fatal("window start wrong")
	}
	// Unbounded sides.
	n, _ := Count(NewTimeWindow(NewSliceSource(pts), time.Time{}, t0.Add(5*time.Second)))
	if n != 5 {
		t.Fatalf("right-bounded window = %d", n)
	}
	n, _ = Count(NewTimeWindow(NewSliceSource(pts), t0.Add(95*time.Second), time.Time{}))
	if n != 5 {
		t.Fatalf("left-bounded window = %d", n)
	}
}

func TestSplit(t *testing.T) {
	// Three segments separated by >5 min gaps.
	var pts []Point
	base := t0
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 10; i++ {
			pts = append(pts, Point{T: base.Add(time.Duration(i) * time.Second)})
		}
		base = base.Add(time.Hour)
	}
	var sizes []int
	err := Split(NewSliceSource(pts), 5*time.Minute, func(tr *Trace) error {
		sizes = append(sizes, tr.Len())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 10 || sizes[1] != 10 || sizes[2] != 10 {
		t.Fatalf("Split sizes = %v", sizes)
	}
}

func TestSplitErrors(t *testing.T) {
	if err := Split(NewSliceSource(nil), 0, func(*Trace) error { return nil }); err == nil {
		t.Fatal("non-positive maxGap should error")
	}
	boom := errors.New("boom")
	err := Split(NewSliceSource(linearPoints(5)), time.Minute, func(*Trace) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

func TestPointString(t *testing.T) {
	p := Point{Pos: geo.LatLon{Lat: 1, Lon: 2}, T: t0}
	s := p.String()
	if s == "" || s == "@" {
		t.Fatalf("String = %q", s)
	}
}

func BenchmarkSampler(b *testing.B) {
	pts := linearPoints(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSampler(NewSliceSource(pts), 10*time.Second, 0)
		if _, err := Count(s); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleSampler() {
	pts := linearPoints(30)
	s := NewSampler(NewSliceSource(pts), 10*time.Second, 0)
	n, _ := Count(s)
	fmt.Println(n)
	// Output: 3
}
