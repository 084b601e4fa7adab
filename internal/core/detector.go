package core

import (
	"errors"
	"fmt"
	"io"

	"locwatch/internal/stats"
	"locwatch/internal/trace"
)

// Detection is the outcome of a streaming breach check.
type Detection struct {
	Breached bool // His_bin == 1: collected data fits the profile
	Result   stats.GoodnessOfFit
	// PointsFed and VisitsSeen describe how much collected data the
	// decision is based on.
	PointsFed  int
	VisitsSeen int
	// AtEnd marks the result of the last check a first-breach loop
	// gives a detector still clear when its stream ends; a breach found
	// on the Due cadence has AtEnd false.
	AtEnd bool
}

// Detector is the streaming His_bin risk monitor: it accumulates the
// locations an app has collected about a user and reports, at any
// point, whether that collection already reveals the user's activity
// profile under a given pattern. This is the detector the paper
// proposes deploying on-device to alert users before the breach
// completes, and the engine behind the Figure 4 experiments.
type Detector struct {
	reference *Profile
	pattern   Pattern
	builder   *ProfileBuilder // shared by both patterns of a CombinedDetector

	// The observed profile's size at the last check; Due measures the
	// cadence from here.
	checkedPoints, checkedVisits int
}

// NewDetector returns a detector that checks collected data against
// the given reference profile. The observed data is accumulated with
// the reference's parameters and anchor so histograms align.
func NewDetector(reference *Profile, pattern Pattern) (*Detector, error) {
	if reference == nil {
		return nil, errors.New("core: nil reference profile")
	}
	b, err := NewProfileBuilder(reference.Anchor(), reference.Params())
	if err != nil {
		return nil, err
	}
	return &Detector{reference: reference, pattern: pattern, builder: b}, nil
}

// Pattern returns the pattern the detector compares under.
func (d *Detector) Pattern() Pattern { return d.pattern }

// Observed returns the live observed profile accumulated so far.
func (d *Detector) Observed() *Profile { return d.builder.profile }

// Feed adds one collected fix.
func (d *Detector) Feed(pt trace.Point) error { return d.builder.Feed(pt) }

// checkStridePoints bounds how many points may pass between breach
// checks: pattern 1's histogram changes on every fix, so a check falls
// due periodically even when no new visit completes.
const checkStridePoints = 500

// Due reports whether a breach check is due: a visit has completed
// since the last Check, or checkStridePoints fixes have been fed since
// it. FirstBreach checks on exactly this cadence; callers driving Feed
// themselves follow it by calling Check whenever Due is true.
func (d *Detector) Due() bool {
	obs := d.builder.profile
	return obs.NumVisits() != d.checkedVisits || obs.NumPoints()-d.checkedPoints >= checkStridePoints
}

// markChecked restarts the cadence at the current observed size.
func (d *Detector) markChecked() {
	d.checkedPoints, d.checkedVisits = d.builder.profile.NumPoints(), d.builder.profile.NumVisits()
}

// Check runs the His_bin test on everything fed so far and restarts
// the Due cadence. It does not flush the open stay, so it can be
// called between points at any cadence; a trailing open stay only
// contributes once it completes. When either side is still too thin
// for a test, Check reports no breach with a zero Result and a nil
// error.
func (d *Detector) Check() (Detection, error) {
	d.markChecked()
	// A watch drops its builder once every detector has breached, so
	// the point counts are flushed at every check.
	d.builder.flushCounts()
	obs := d.builder.profile
	det := Detection{PointsFed: obs.NumPoints(), VisitsSeen: obs.NumVisits()}
	g, err := d.reference.Compare(obs, d.pattern)
	if err != nil {
		if errors.Is(err, ErrNoProfile) || errors.Is(err, stats.ErrDegenerate) {
			return det, nil
		}
		return det, err
	}
	det.Result = g
	det.Breached = g.Match(d.reference.Params().Alpha)
	if det.Breached {
		obs.params.Obs.Breaches.Inc()
	}
	return det, nil
}

// FirstBreach streams src into the detector until the first breach,
// checking whenever one is Due, with the cadence starting at the call.
// It returns the detection state at the moment of the breach. If the
// stream ends first, it returns the result of one last check on
// everything fed, with AtEnd set; that check can itself breach.
func (d *Detector) FirstBreach(src trace.Source) (Detection, error) {
	dets, err := newWatch(d).drain(src)
	if err != nil {
		return Detection{}, err
	}
	return dets[0], nil
}

// Watch is the first-breach loop in push form. It is told each fix of
// one stream in order, feeds it once into the builder its detectors
// share, and checks each detector still clear whenever that detector
// is Due. Finish ends the stream. Each result equals that detector's
// own FirstBreach over the fixes fed. FirstBreach and FirstBreaches
// are the pull loop over a Watch; a caller that replays one stream
// into several watches pushes each fix itself.
type Watch struct {
	ds      []*Detector
	out     []Detection
	pending int // detectors not yet breached
}

// newWatch starts a watch over detectors that share one builder, with
// every cadence starting now.
func newWatch(ds ...*Detector) *Watch {
	for _, d := range ds {
		d.markChecked()
	}
	return &Watch{ds: ds, out: make([]Detection, len(ds)), pending: len(ds)}
}

// Feed adds the next fix and checks every detector still clear whose
// check is Due.
func (w *Watch) Feed(pt trace.Point) error {
	if err := w.ds[0].Feed(pt); err != nil {
		return err
	}
	for i, d := range w.ds {
		if w.out[i].Breached || !d.Due() {
			continue
		}
		det, err := d.Check()
		if err != nil {
			return err
		}
		w.out[i] = det
		if det.Breached {
			w.pending--
		}
	}
	return nil
}

// Done reports whether every detector has breached: no further fix can
// change a result.
func (w *Watch) Done() bool { return w.pending == 0 }

// Finish ends the stream: every detector still clear gets one last
// check on everything fed, whose result carries AtEnd. It returns one
// Detection per detector, in order. Call it once, after the last Feed.
func (w *Watch) Finish() ([]Detection, error) {
	for i, d := range w.ds {
		if w.out[i].Breached {
			continue
		}
		det, err := d.Check()
		if err != nil {
			return nil, err
		}
		det.AtEnd = true
		w.out[i] = det
	}
	return w.out, nil
}

// drain pushes src into w until w is Done or src ends, then finishes w.
func (w *Watch) drain(src trace.Source) ([]Detection, error) {
	for !w.Done() {
		pt, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: first breach: %w", err)
		}
		if err := w.Feed(pt); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}

// CombinedDetector evaluates both patterns at once and raises on
// whichever fires first — the paper's concluding recommendation
// ("combine both patterns ... issue an alert when either of them
// detects the risk"). Both patterns test one observed profile, so
// every fix is fed once.
type CombinedDetector struct {
	region   *Detector
	movement *Detector
}

// NewCombinedDetector returns a detector over both patterns.
func NewCombinedDetector(reference *Profile) (*CombinedDetector, error) {
	r, err := NewDetector(reference, PatternRegion)
	if err != nil {
		return nil, err
	}
	m := &Detector{reference: reference, pattern: PatternMovement, builder: r.builder}
	return &CombinedDetector{region: r, movement: m}, nil
}

// Observed returns the live observed profile. Both patterns test the
// same profile, so the pattern selects nothing.
func (c *CombinedDetector) Observed(Pattern) *Profile { return c.region.Observed() }

// Feed adds one collected fix.
func (c *CombinedDetector) Feed(pt trace.Point) error { return c.region.Feed(pt) }

// Due reports whether a Check is due under Detector.Due's cadence.
func (c *CombinedDetector) Due() bool { return c.region.Due() || c.movement.Due() }

// Check runs both tests; the combined detection is breached when
// either is. The per-pattern detections are returned for attribution.
func (c *CombinedDetector) Check() (combined Detection, region, movement Detection, err error) {
	region, err = c.region.Check()
	if err != nil {
		return Detection{}, region, movement, err
	}
	movement, err = c.movement.Check()
	if err != nil {
		return Detection{}, region, movement, err
	}
	combined = region
	combined.Breached = region.Breached || movement.Breached
	if !region.Breached && movement.Breached {
		combined.Result = movement.Result
	}
	return combined, region, movement, nil
}

// Watch starts a first-breach watch over both patterns, with both
// cadences starting now; Finish returns the region detection, then the
// movement one. Drive a CombinedDetector through one Watch or through
// Feed, Due and Check, not both.
func (c *CombinedDetector) Watch() *Watch { return newWatch(c.region, c.movement) }

// FirstBreaches is FirstBreach for both patterns over one replay of
// src: each result equals a separate Detector's FirstBreach on the
// same stream.
func (c *CombinedDetector) FirstBreaches(src trace.Source) (region, movement Detection, err error) {
	dets, err := c.Watch().drain(src)
	if err != nil {
		return Detection{}, Detection{}, err
	}
	return dets[0], dets[1], nil
}
