package core

import (
	"testing"
	"time"

	"locwatch/internal/trace"
)

func TestDetectorNilReference(t *testing.T) {
	if _, err := NewDetector(nil, PatternRegion); err == nil {
		t.Fatal("nil reference accepted")
	}
}

func TestDetectorBreachesOnOwnPrefix(t *testing.T) {
	// Feeding a habitual user's own data must eventually breach under
	// both patterns, well before the full trace is consumed.
	pts := commuteTrace(11, 10, anchor, at(60, 4000), at(150, 2500))
	ref := mustProfile(t, pts)

	for _, pattern := range []Pattern{PatternRegion, PatternMovement} {
		d, err := NewDetector(ref, pattern)
		if err != nil {
			t.Fatal(err)
		}
		det, err := d.FirstBreach(trace.NewSliceSource(pts))
		if err != nil {
			t.Fatal(err)
		}
		if !det.Breached {
			t.Fatalf("%v: no breach on the user's own full data", pattern)
		}
		if det.PointsFed >= len(pts) {
			t.Fatalf("%v: breach only at the very end (%d/%d points)", pattern, det.PointsFed, len(pts))
		}
	}
}

func TestDetectorDoesNotBreachOnStranger(t *testing.T) {
	ref := mustProfile(t, commuteTrace(12, 8, anchor, at(60, 4000), at(150, 2500)))
	stranger := commuteTrace(13, 8, at(270, 6000), at(300, 9000), at(330, 7000))

	for _, pattern := range []Pattern{PatternRegion, PatternMovement} {
		d, err := NewDetector(ref, pattern)
		if err != nil {
			t.Fatal(err)
		}
		det, err := d.FirstBreach(trace.NewSliceSource(stranger))
		if err != nil {
			t.Fatal(err)
		}
		if det.Breached {
			t.Fatalf("%v: stranger's data breached the reference profile", pattern)
		}
	}
}

func TestDetectorCheckBeforeAnyData(t *testing.T) {
	ref := mustProfile(t, commuteTrace(14, 5, anchor, at(60, 4000), at(150, 2500)))
	d, err := NewDetector(ref, PatternRegion)
	if err != nil {
		t.Fatal(err)
	}
	det, err := d.Check()
	if err != nil {
		t.Fatal(err)
	}
	if det.Breached || det.PointsFed != 0 || det.VisitsSeen != 0 {
		t.Fatalf("fresh detector detection = %+v", det)
	}
}

func TestDetectorCheckAgainstThinReference(t *testing.T) {
	thin := mustProfile(t, nil)
	d, err := NewDetector(thin, PatternMovement)
	if err != nil {
		t.Fatal(err)
	}
	// Feeding real data against an unusable reference: no breach, no error.
	for _, p := range commuteTrace(15, 2, anchor, at(60, 4000), at(150, 2500)) {
		if err := d.Feed(p); err != nil {
			t.Fatal(err)
		}
	}
	det, err := d.Check()
	if err != nil {
		t.Fatal(err)
	}
	if det.Breached {
		t.Fatal("breach against an empty reference")
	}
}

func TestDetectorObservedAccumulates(t *testing.T) {
	ref := mustProfile(t, commuteTrace(16, 5, anchor, at(60, 4000), at(150, 2500)))
	d, err := NewDetector(ref, PatternRegion)
	if err != nil {
		t.Fatal(err)
	}
	pts := commuteTrace(16, 2, anchor, at(60, 4000), at(150, 2500))
	for _, p := range pts {
		if err := d.Feed(p); err != nil {
			t.Fatal(err)
		}
	}
	if d.Observed().NumPoints() != len(pts) {
		t.Fatalf("observed %d points, fed %d", d.Observed().NumPoints(), len(pts))
	}
	if d.Pattern() != PatternRegion {
		t.Fatal("Pattern accessor wrong")
	}
}

// routineTrace is a user whose movement ORDER is highly regular but
// whose visit-duration mix (and hence region visit counts over time)
// is more varied: extra region visits late in the trace.
func routineTrace() []trace.Point {
	home, work, gym, mall := anchor, at(60, 4000), at(150, 2500), at(250, 3500)
	b := newBuilder(home, 17)
	for d := 0; d < 12; d++ {
		b.stay(40*time.Minute).
			walk(gym, 9).stay(30*time.Minute).
			walk(work, 9).stay(3*time.Hour).
			walk(home, 9).stay(40 * time.Minute)
		// In the second half of the study the user also frequents the
		// mall, skewing late region counts relative to early ones.
		if d >= 6 {
			b.walk(mall, 9).stay(90*time.Minute).walk(home, 9).stay(30 * time.Minute)
		}
		b.now = b.now.Add(9 * time.Hour)
	}
	return b.pts
}

func TestMovementPatternBreachesFasterOnRoutineUser(t *testing.T) {
	// The paper's headline: for users with strong movement habits,
	// pattern 2 needs a smaller fraction of the data than pattern 1.
	pts := routineTrace()
	ref := mustProfile(t, pts)

	frac := map[Pattern]float64{}
	for _, pattern := range []Pattern{PatternRegion, PatternMovement} {
		d, err := NewDetector(ref, pattern)
		if err != nil {
			t.Fatal(err)
		}
		det, err := d.FirstBreach(trace.NewSliceSource(pts))
		if err != nil {
			t.Fatal(err)
		}
		if !det.Breached {
			t.Fatalf("%v: no breach at all", pattern)
		}
		frac[pattern] = float64(det.PointsFed) / float64(len(pts))
	}
	if frac[PatternMovement] > frac[PatternRegion] {
		t.Fatalf("pattern 2 (%.3f of data) slower than pattern 1 (%.3f)",
			frac[PatternMovement], frac[PatternRegion])
	}
}

func TestCombinedDetectorFiresOnEither(t *testing.T) {
	pts := commuteTrace(18, 10, anchor, at(60, 4000), at(150, 2500))
	ref := mustProfile(t, pts)
	cd, err := NewCombinedDetector(ref)
	if err != nil {
		t.Fatal(err)
	}
	var firstBreach Detection
	breached := false
	for _, p := range pts {
		if err := cd.Feed(p); err != nil {
			t.Fatal(err)
		}
		if !cd.Due() {
			continue
		}
		combined, region, movement, err := cd.Check()
		if err != nil {
			t.Fatal(err)
		}
		if cd.Due() {
			t.Fatal("Check did not restart the cadence")
		}
		if combined.Breached != (region.Breached || movement.Breached) {
			t.Fatal("combined flag is not the OR of the patterns")
		}
		if combined.Breached && !breached {
			breached = true
			firstBreach = combined
		}
	}
	if !breached {
		t.Fatal("combined detector never fired on the user's own data")
	}
	// The combined detector can only be as slow as the slower pattern;
	// verify against single-pattern detectors.
	for _, pattern := range []Pattern{PatternRegion, PatternMovement} {
		d, err := NewDetector(ref, pattern)
		if err != nil {
			t.Fatal(err)
		}
		det, err := d.FirstBreach(trace.NewSliceSource(pts))
		if err != nil {
			t.Fatal(err)
		}
		if det.Breached && det.PointsFed < firstBreach.PointsFed {
			t.Fatalf("combined fired at %d points but %v alone fired at %d",
				firstBreach.PointsFed, pattern, det.PointsFed)
		}
	}
}

// endOnlyPrefix returns the shortest prefix of pts on which pattern's
// detector breaches only at the end-of-stream check: the first length
// at which a check of everything fed so far breaches, when that comes
// before the first breach on the Due cadence. A probe detector checked
// after every fix finds it; checks do not change the observed profile.
func endOnlyPrefix(t *testing.T, ref *Profile, pts []trace.Point, pattern Pattern) []trace.Point {
	t.Helper()
	d, err := NewDetector(ref, pattern)
	if err != nil {
		t.Fatal(err)
	}
	cadence, err := d.FirstBreach(trace.NewSliceSource(pts))
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewDetector(ref, pattern)
	if err != nil {
		t.Fatal(err)
	}
	for n, p := range pts[:cadence.PointsFed] {
		if err := probe.Feed(p); err != nil {
			t.Fatal(err)
		}
		det, err := probe.Check()
		if err != nil {
			t.Fatal(err)
		}
		if det.Breached && n+1 < cadence.PointsFed {
			return pts[:n+1]
		}
	}
	t.Fatalf("%v: no prefix breaches before the cadence breach at %d points", pattern, cadence.PointsFed)
	return nil
}

// TestCombinedFirstBreachesMatchesDetectors pins FirstBreaches and the
// push form to their definition: per pattern, the Detection an
// independent Detector's FirstBreach returns on the same stream. The
// fixtures cover pattern 1 breaching first (the user's own trace),
// neither breaching (a stranger), pattern 2 breaching first (the
// routine user) and pattern 1 breaching only at the end-of-stream
// check (a prefix of the user's own trace). AtEnd marks exactly the
// results of that last check.
func TestCombinedFirstBreachesMatchesDetectors(t *testing.T) {
	own := commuteTrace(11, 10, anchor, at(60, 4000), at(150, 2500))
	routine := routineTrace()
	endOnly := endOnlyPrefix(t, mustProfile(t, own), own, PatternRegion)
	cases := []struct {
		name      string
		reference []trace.Point
		stream    []trace.Point
	}{
		{"own trace", own, own},
		{"stranger", commuteTrace(12, 8, anchor, at(60, 4000), at(150, 2500)),
			commuteTrace(13, 8, at(270, 6000), at(300, 9000), at(330, 7000))},
		{"routine user", routine, routine},
		{"end-only breach", own, endOnly},
	}
	for _, tc := range cases {
		ref := mustProfile(t, tc.reference)
		cd, err := NewCombinedDetector(ref)
		if err != nil {
			t.Fatal(err)
		}
		region, movement, err := cd.FirstBreaches(trace.NewSliceSource(tc.stream))
		if err != nil {
			t.Fatal(err)
		}
		// The push form, driven fix by fix until every pattern breached.
		pushed, err := NewCombinedDetector(ref)
		if err != nil {
			t.Fatal(err)
		}
		w := pushed.Watch()
		for _, p := range tc.stream {
			if w.Done() {
				break
			}
			if err := w.Feed(p); err != nil {
				t.Fatal(err)
			}
		}
		pushedDets, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for i, pattern := range []Pattern{PatternRegion, PatternMovement} {
			got := [...]Detection{region, movement}[i]
			d, err := NewDetector(ref, pattern)
			if err != nil {
				t.Fatal(err)
			}
			want, err := d.FirstBreach(trace.NewSliceSource(tc.stream))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s, %v: FirstBreaches = %+v, FirstBreach = %+v", tc.name, pattern, got, want)
			}
			if pushedDets[i] != want {
				t.Errorf("%s, %v: Watch = %+v, FirstBreach = %+v", tc.name, pattern, pushedDets[i], want)
			}
			// A breach before the last fix came from a cadence check; the
			// end-of-stream check sees every fix.
			if want.Breached && want.PointsFed < len(tc.stream) && want.AtEnd {
				t.Errorf("%s, %v: cadence breach at %d of %d points has AtEnd set", tc.name, pattern, want.PointsFed, len(tc.stream))
			}
			if want.AtEnd && want.PointsFed != len(tc.stream) {
				t.Errorf("%s, %v: end-of-stream result saw %d of %d points", tc.name, pattern, want.PointsFed, len(tc.stream))
			}
			if !want.Breached && !want.AtEnd {
				t.Errorf("%s, %v: clear result without the end-of-stream check", tc.name, pattern)
			}
		}
		if tc.name == "end-only breach" && (!region.Breached || !region.AtEnd) {
			t.Errorf("end-only fixture: region detection %+v, want a breach at the end-of-stream check", region)
		}
	}
}
