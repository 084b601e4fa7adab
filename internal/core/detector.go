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
// It returns the detection state at the moment of the breach, or the
// final state with Breached == false if the stream ends first.
func (d *Detector) FirstBreach(src trace.Source) (Detection, error) {
	dets, err := firstBreaches(src, d)
	if err != nil {
		return Detection{}, err
	}
	return dets[0], nil
}

// firstBreaches feeds src once into the builder the detectors share
// and checks each detector whenever it is Due, until all have breached
// or src ends; those still clear at the end get one last check. Each
// result equals that detector's own FirstBreach over src.
func firstBreaches(src trace.Source, ds ...*Detector) ([]Detection, error) {
	for _, d := range ds {
		d.markChecked()
	}
	out := make([]Detection, len(ds))
	for pending := len(ds); pending > 0; {
		pt, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: first breach: %w", err)
		}
		if err := ds[0].Feed(pt); err != nil {
			return nil, err
		}
		for i, d := range ds {
			if out[i].Breached || !d.Due() {
				continue
			}
			if out[i], err = d.Check(); err != nil {
				return nil, err
			}
			if out[i].Breached {
				pending--
			}
		}
	}
	for i, d := range ds {
		if out[i].Breached {
			continue
		}
		var err error
		if out[i], err = d.Check(); err != nil {
			return nil, err
		}
	}
	return out, nil
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

// FirstBreaches is FirstBreach for both patterns over one replay of
// src: each result equals a separate Detector's FirstBreach on the
// same stream.
func (c *CombinedDetector) FirstBreaches(src trace.Source) (region, movement Detection, err error) {
	dets, err := firstBreaches(src, c.region, c.movement)
	if err != nil {
		return Detection{}, Detection{}, err
	}
	return dets[0], dets[1], nil
}
