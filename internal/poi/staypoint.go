package poi

import (
	"errors"
	"fmt"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/trace"
)

// StayPointExtractor is the classic stay-point detector of Li et al.
// (GeoLife), used as the ablation baseline against the buffer
// algorithm: starting from an anchor fix, consecutive fixes within
// Radius of the anchor are grouped; when the group's time span reaches
// MinVisit the group is a stay point.
//
// It shares Params with the buffer extractor; Window is ignored.
type StayPointExtractor struct {
	params Params
	emit   func(StayPoint)

	group    []trace.Point
	centroid geo.RunningCentroid
	last     time.Time
	any      bool
}

// NewStayPointExtractor returns a streaming baseline extractor.
func NewStayPointExtractor(params Params, emit func(StayPoint)) (*StayPointExtractor, error) {
	p, err := params.withDefaults()
	if err != nil {
		return nil, err
	}
	if emit == nil {
		return nil, errors.New("poi: nil emit callback")
	}
	return &StayPointExtractor{params: p, emit: emit}, nil
}

// Feed processes the next point in time order.
func (e *StayPointExtractor) Feed(p trace.Point) error {
	if e.any && p.T.Before(e.last) {
		return fmt.Errorf("poi: out-of-order point %v before %v", p.T, e.last)
	}
	if e.any && p.T.Sub(e.last) > e.params.MaxGap {
		e.flushGroup()
	}
	e.last = p.T
	e.any = true
	e.params.Obs.Points.Inc()

	if len(e.group) == 0 {
		e.push(p)
		return nil
	}
	// Anchor is the first fix of the group, per the original algorithm.
	if geo.LocalDistance(e.group[0].Pos, p.Pos) <= e.params.Radius {
		e.push(p)
		return nil
	}
	e.flushGroup()
	e.push(p)
	return nil
}

func (e *StayPointExtractor) push(p trace.Point) {
	e.group = append(e.group, p)
	e.centroid.Add(p.Pos)
}

// flushGroup emits the current group if it dwelled long enough, then
// clears it.
func (e *StayPointExtractor) flushGroup() {
	if n := len(e.group); n > 1 {
		span := e.group[n-1].T.Sub(e.group[0].T)
		if span >= e.params.MinVisit {
			e.params.Obs.Stays.Inc()
			e.emit(StayPoint{
				Pos:     e.centroid.Value(),
				Enter:   e.group[0].T,
				Exit:    e.group[n-1].T,
				NPoints: n,
			})
		}
	}
	e.group = e.group[:0]
	e.centroid.Reset()
}

// Flush signals end of stream.
func (e *StayPointExtractor) Flush() {
	e.flushGroup()
	e.any = false
}
