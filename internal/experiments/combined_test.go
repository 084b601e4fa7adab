package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/trace"
)

func TestCombinedDetectorDominates(t *testing.T) {
	l := mustLab(t, tinyConfig())
	r, err := Combined(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(l.cfg.Intervals) {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The combined detector fires for every user either pattern
		// fires for — never fewer.
		if row.DetectedCombined < row.DetectedP1 || row.DetectedCombined < row.DetectedP2 {
			t.Fatalf("combined detected fewer users: %+v", row)
		}
	}
	// At native rate the combined detector is at least as fast on
	// average as the faster single pattern (it fires at min of both).
	native := r.Rows[0]
	if native.DetectedCombined == 0 {
		t.Fatal("combined never fired at native rate")
	}
	faster := native.MeanFractionP1
	if native.MeanFractionP2 > 0 && (faster == 0 || native.MeanFractionP2 < faster) {
		faster = native.MeanFractionP2
	}
	if native.MeanFractionCombined > faster+0.05 {
		t.Fatalf("combined slower than the faster pattern: %+v", native)
	}
	if out := r.Render(); !strings.Contains(out, "comb det") {
		t.Fatalf("render:\n%s", out)
	}
}

// combinedOracle is Combined as its own replay: each user's trace at
// every interval is fed through a core.CombinedDetector, Check runs
// whenever Due, and a pattern's first fire is the fixes fed at its
// first breach on that cadence; there is no end-of-stream check.
func combinedOracle(l *Lab) (*CombinedResult, error) {
	profiles, err := l.Profiles()
	if err != nil {
		return nil, err
	}
	res := &CombinedResult{}
	for _, iv := range l.cfg.Intervals {
		totals, err := l.pointTotals(iv)
		if err != nil {
			return nil, err
		}
		row := CombinedRow{Interval: iv}
		type firstFires struct{ p1, p2, c int }
		firsts := make([]firstFires, l.world.NumUsers())
		for id := range firsts {
			cd, err := core.NewCombinedDetector(profiles[id])
			if err != nil {
				return nil, err
			}
			src, err := l.world.Trace(id, iv)
			if err != nil {
				return nil, err
			}
			var f firstFires
			for f.p1 == 0 || f.p2 == 0 {
				pt, err := src.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return nil, err
				}
				if err := cd.Feed(pt); err != nil {
					return nil, err
				}
				if !cd.Due() {
					continue
				}
				combined, p1, p2, err := cd.Check()
				if err != nil {
					return nil, err
				}
				if p1.Breached && f.p1 == 0 {
					f.p1 = p1.PointsFed
				}
				if p2.Breached && f.p2 == 0 {
					f.p2 = p2.PointsFed
				}
				if combined.Breached && f.c == 0 {
					f.c = combined.PointsFed
				}
			}
			firsts[id] = f
		}
		var sumP1, sumP2, sumC float64
		for id, f := range firsts {
			total := totals[id]
			if total == 0 {
				continue
			}
			if f.p1 > 0 {
				row.DetectedP1++
				sumP1 += float64(f.p1) / float64(total)
			}
			if f.p2 > 0 {
				row.DetectedP2++
				sumP2 += float64(f.p2) / float64(total)
			}
			if f.c > 0 {
				row.DetectedCombined++
				sumC += float64(f.c) / float64(total)
			}
		}
		if row.DetectedP1 > 0 {
			row.MeanFractionP1 = sumP1 / float64(row.DetectedP1)
		}
		if row.DetectedP2 > 0 {
			row.MeanFractionP2 = sumP2 / float64(row.DetectedP2)
		}
		if row.DetectedCombined > 0 {
			row.MeanFractionCombined = sumC / float64(row.DetectedCombined)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// detectOracle is one detection sweep as its own replay: each user's
// trace at interval, through trace.NewSampler(src, 0, phase) when
// phases is not nil, into one CombinedDetector's FirstBreaches; a
// phased sweep's denominator is counted by a timestamps-only pass
// through the same sampler.
func detectOracle(l *Lab, profiles []*core.Profile, interval time.Duration, phases []time.Duration) ([]DetectionOutcome, error) {
	totals, err := l.pointTotals(interval)
	if err != nil {
		return nil, err
	}
	var out []DetectionOutcome
	for id := range l.world.NumUsers() {
		denom := totals[id]
		src, err := l.world.Trace(id, interval)
		if err != nil {
			return nil, err
		}
		if phases != nil {
			times, err := l.world.TraceTimes(id, interval)
			if err != nil {
				return nil, err
			}
			if denom, err = trace.Count(trace.NewSampler(times, 0, phases[id])); err != nil {
				return nil, err
			}
			src = trace.NewSampler(src, 0, phases[id])
		}
		cd, err := core.NewCombinedDetector(profiles[id])
		if err != nil {
			return nil, err
		}
		region, movement, err := cd.FirstBreaches(src)
		if err != nil {
			return nil, err
		}
		for i, det := range [...]core.Detection{region, movement} {
			o := DetectionOutcome{User: id, Pattern: patterns[i], Fraction: 1, PointsFed: det.PointsFed, AtEnd: det.AtEnd}
			if det.Breached && denom > 0 {
				o.Detected = true
				o.Fraction = min(float64(det.PointsFed)/float64(denom), 1)
			}
			out = append(out, o)
		}
	}
	return out, nil
}

// TestCombinedMatchesOracle holds Combined, a fold over the memoized
// detection sweeps, equal field for field to its own-replay oracle on
// several tiny worlds, both on a cold lab (Combined builds the sweeps)
// and after Figure4 (it reads Figure 4's).
func TestCombinedMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("replays three tiny worlds several times")
	}
	for _, seed := range []int64{1, 2, 3} {
		cfg := tinyConfig()
		cfg.Mobility.Seed = seed
		want, err := combinedOracle(mustLab(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, warm := range []bool{false, true} {
			l := mustLab(t, cfg)
			if warm {
				if _, err := Figure4(l); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Combined(l)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("seed %d: %d rows, oracle %d", seed, len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				if got.Rows[i] != want.Rows[i] {
					t.Errorf("seed %d, after Figure4 %t: row %d = %+v, oracle %+v", seed, warm, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

// TestNativeSweepsMatchOracle holds the shared native replay equal to
// separate replays: 4(a) from the trace start and 4(b) through a
// phased sampler, with 4(b)'s denominators from a timestamps-only
// pass, on several tiny worlds.
func TestNativeSweepsMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("replays three tiny worlds several times")
	}
	for _, seed := range []int64{1, 2, 3} {
		cfg := tinyConfig()
		cfg.Mobility.Seed = seed
		l := mustLab(t, cfg)
		profiles, err := l.Profiles()
		if err != nil {
			t.Fatal(err)
		}
		native, err := l.detectAll(profiles, 0, atTraceStart, atRandomPhase)
		if err != nil {
			t.Fatal(err)
		}
		for i, phases := range [...][]time.Duration{atTraceStart: nil, atRandomPhase: l.randomPhases()} {
			want, err := detectOracle(l, profiles, 0, phases)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d, phased %t", seed, phases != nil)
			if len(native[i]) != len(want) {
				t.Fatalf("%s: %d outcomes, oracle %d", label, len(native[i]), len(want))
			}
			for j := range want {
				if native[i][j] != want[j] {
					t.Errorf("%s: outcome %d = %+v, oracle %+v", label, j, native[i][j], want[j])
				}
			}
		}
	}
}

func TestAblationTracking(t *testing.T) {
	l := mustLab(t, tinyConfig())
	r, err := AblationTracking(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	byName := map[string]TrackingRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	raw := byName["raw"]
	if raw.MeanTTC <= 0 {
		t.Fatalf("raw mean TTC = %v", raw.MeanTTC)
	}
	// Coarsening to 1 km snaps users to shared grid points, so
	// confusion happens sooner than on raw releases.
	if c := byName["coarsen-1km"]; c.MeanTTC > raw.MeanTTC {
		t.Fatalf("coarsening made tracking easier: %v vs %v", c.MeanTTC, raw.MeanTTC)
	}
	if out := r.Render(); !strings.Contains(out, "time to confusion") {
		t.Fatalf("render:\n%s", out)
	}
}
