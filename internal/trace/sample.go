package trace

import (
	"fmt"
	"io"
	"time"
)

// Sampler transforms a full-rate Source into the subsequence an app
// observing the trace at a given background-access interval would
// collect: the first point at or after each access instant is released.
// This models Android's minTime listener contract — the app receives at
// most one update per interval, and receives it as soon as a fix is
// available after the interval elapses.
type Sampler struct {
	src  Source
	gate Gate
}

// NewSampler returns a Sampler releasing at most one point per
// interval. A non-positive interval passes every point through
// (continuous access). phase delays the first access after the start of
// the stream, modeling an app that begins observing mid-trace (the
// Figure 4(b) random-start experiment makes this decision through
// NewGate).
func NewSampler(src Source, interval, phase time.Duration) *Sampler {
	return &Sampler{src: src, gate: NewGate(interval, phase)}
}

var _ Source = (*Sampler)(nil)

// Next implements Source.
func (s *Sampler) Next() (Point, error) {
	for {
		p, err := s.src.Next()
		if err != nil {
			return Point{}, err
		}
		if s.gate.Keep(p) {
			return p, nil
		}
	}
}

// Gate is Sampler's release decision in push form: Keep is told each
// point of one stream in order and reports whether the app receives
// it. A Gate holds the schedule of one stream, so it serves one stream
// only.
type Gate struct {
	interval time.Duration
	phase    time.Duration
	next     time.Time // zero until the first point is seen
	started  bool
}

// NewGate returns the decision NewSampler(src, interval, phase) makes;
// a negative phase counts as zero.
func NewGate(interval, phase time.Duration) Gate {
	if phase < 0 {
		phase = 0
	}
	return Gate{interval: interval, phase: phase}
}

// Keep reports whether p, the next point of the stream, is released.
func (g *Gate) Keep(p Point) bool {
	if g.interval <= 0 && g.phase == 0 {
		return true
	}
	if !g.started {
		g.next = p.T.Add(g.phase)
		g.started = true
	}
	if p.T.Before(g.next) {
		return false
	}
	if g.interval > 0 {
		// Schedule the next access. Scheduling from the released fix
		// (not from the nominal instant) matches a periodic listener
		// re-armed on each callback.
		g.next = p.T.Add(g.interval)
	}
	return true
}

// Head limits a source to its first n points.
type Head struct {
	src  Source
	left int
}

// NewHead returns a Source yielding at most n points of src.
func NewHead(src Source, n int) *Head {
	return &Head{src: src, left: n}
}

var _ Source = (*Head)(nil)

// Next implements Source.
func (h *Head) Next() (Point, error) {
	if h.left <= 0 {
		return Point{}, io.EOF
	}
	p, err := h.src.Next()
	if err != nil {
		return Point{}, err
	}
	h.left--
	return p, nil
}

// TimeWindow restricts a source to points with T in [from, to). A zero
// from or to leaves that side unbounded.
type TimeWindow struct {
	src      Source
	from, to time.Time
}

// NewTimeWindow returns a Source yielding only points within the window.
func NewTimeWindow(src Source, from, to time.Time) *TimeWindow {
	return &TimeWindow{src: src, from: from, to: to}
}

var _ Source = (*TimeWindow)(nil)

// Next implements Source.
func (w *TimeWindow) Next() (Point, error) {
	for {
		p, err := w.src.Next()
		if err != nil {
			return Point{}, err
		}
		if !w.from.IsZero() && p.T.Before(w.from) {
			continue
		}
		if !w.to.IsZero() && !p.T.Before(w.to) {
			// Points are time-ordered, so nothing further can qualify.
			return Point{}, io.EOF
		}
		return p, nil
	}
}

// Split partitions a source into trajectories: maximal runs of points
// whose inter-point gap stays below maxGap. This mirrors how the
// GeoLife dataset is organized into 17,621 trajectory files. The
// callback receives each completed trajectory; the Trace passed in is
// reused only after the callback returns, so callbacks that retain it
// must copy.
func Split(src Source, maxGap time.Duration, fn func(*Trace) error) error {
	if maxGap <= 0 {
		return fmt.Errorf("trace: Split needs a positive maxGap, got %v", maxGap)
	}
	cur := &Trace{}
	flush := func() error {
		if cur.Len() == 0 {
			return nil
		}
		if err := fn(cur); err != nil {
			return err
		}
		cur.Points = cur.Points[:0]
		return nil
	}
	err := ForEach(src, func(p Point) error {
		if n := cur.Len(); n > 0 && p.T.Sub(cur.Points[n-1].T) > maxGap {
			if err := flush(); err != nil {
				return err
			}
		}
		return cur.Append(p)
	})
	if err != nil {
		return err
	}
	return flush()
}
