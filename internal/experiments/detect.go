package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/stats"
	"locwatch/internal/trace"
)

// detectKey identifies one memoized detectAll sweep. The 4(b) phase
// offsets are derived deterministically from the world seed, so
// whether phases were applied (not their values) completes the key.
type detectKey struct {
	interval time.Duration
	phased   bool
}

// DetectionOutcome is one user × pattern detection result.
type DetectionOutcome struct {
	User     int
	Pattern  core.Pattern
	Detected bool
	// Fraction of the app-collectable stream consumed when the breach
	// first fired (1 when never).
	Fraction float64
}

// Figure4Result aggregates the His_bin detection experiments.
type Figure4Result struct {
	// FromStart / RandomStart hold the native-rate detection fractions
	// per pattern (Figures 4(a) and 4(b)).
	FromStart   map[core.Pattern][]float64
	RandomStart map[core.Pattern][]float64

	// Sweep holds, per interval, the detection counts (Figure 4(c)) and
	// which pattern detected faster per user (Figure 4(d)).
	Sweep []Figure4SweepRow
}

// Figure4SweepRow is one interval of Figures 4(c)/(d).
type Figure4SweepRow struct {
	Interval  time.Duration
	Detected  map[core.Pattern]int
	P2Faster  int // users where pattern 2 fired with a smaller fraction
	P1Faster  int
	BothEqual int // both detected at indistinguishable fractions
}

var patterns = []core.Pattern{core.PatternRegion, core.PatternMovement}

// Figure4 runs the detection experiments: per-user streaming His_bin
// monitors against the user's own full-period profile, from the trace
// start (4a), from a random position (4b), and across the access-
// interval sweep (4c/4d).
func Figure4(l *Lab) (*Figure4Result, error) {
	profiles, err := l.Profiles()
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{
		FromStart:   map[core.Pattern][]float64{},
		RandomStart: map[core.Pattern][]float64{},
	}

	// 4(a): native rate from the start.
	fromStart, err := l.detectAll(profiles, 0, nil)
	if err != nil {
		return nil, err
	}
	for _, o := range fromStart {
		if o.Detected {
			res.FromStart[o.Pattern] = append(res.FromStart[o.Pattern], o.Fraction)
		}
	}

	// 4(b): native rate from a random position in the trace (a per-user
	// deterministic phase in the first half of the period).
	phases := make([]time.Duration, l.world.NumUsers())
	rng := rand.New(rand.NewSource(l.cfg.Mobility.Seed*7919 + 5))
	half := time.Duration(l.cfg.Mobility.Days) * 24 * time.Hour / 2
	for i := range phases {
		phases[i] = time.Duration(rng.Int63n(int64(half)))
	}
	randomStart, err := l.detectAll(profiles, 0, phases)
	if err != nil {
		return nil, err
	}
	for _, o := range randomStart {
		if o.Detected {
			res.RandomStart[o.Pattern] = append(res.RandomStart[o.Pattern], o.Fraction)
		}
	}

	// 4(c)/(d): the interval sweep from the start.
	for _, iv := range l.cfg.Intervals {
		outcomes := fromStart
		if iv != 0 {
			outcomes, err = l.detectAll(profiles, iv, nil)
			if err != nil {
				return nil, err
			}
		}
		row := Figure4SweepRow{Interval: iv, Detected: map[core.Pattern]int{}}
		perUser := map[int]map[core.Pattern]DetectionOutcome{}
		for _, o := range outcomes {
			if o.Detected {
				row.Detected[o.Pattern]++
			}
			if perUser[o.User] == nil {
				perUser[o.User] = map[core.Pattern]DetectionOutcome{}
			}
			perUser[o.User][o.Pattern] = o
		}
		// Figure 4(d) compares detection speed among users both patterns
		// detect; a pattern that never fires for a user is not "slower",
		// it failed (that population is what Figure 4(c) reports).
		for _, m := range perUser {
			p1, p2 := m[core.PatternRegion], m[core.PatternMovement]
			switch {
			case !p1.Detected || !p2.Detected:
			case p2.Fraction < p1.Fraction-1e-9:
				row.P2Faster++
			case p1.Fraction < p2.Fraction-1e-9:
				row.P1Faster++
			default:
				row.BothEqual++
			}
		}
		res.Sweep = append(res.Sweep, row)
	}
	return res, nil
}

// detectAll runs FirstBreach for every user under both patterns at the
// given interval and phase offsets (nil = from the start). Results are
// memoized on the Lab: the inputs are fully determined by the lab
// configuration (the 4(b) phases are seeded from the world seed), so a
// driver rerun on the same lab replays nothing.
func (l *Lab) detectAll(profiles []*core.Profile, interval time.Duration, phases []time.Duration) ([]DetectionOutcome, error) {
	return l.detections.get(detectKey{interval: interval, phased: phases != nil}, func() ([]DetectionOutcome, error) {
		sp := l.root.Child("detect_all")
		sp.SetAttr("interval", intervalLabel(interval))
		sp.SetAttr("phased", fmt.Sprint(phases != nil))
		defer sp.End()

		totals, err := l.pointTotals(interval)
		if err != nil {
			return nil, err
		}
		// Index-ordered reduction: every worker writes its user's slots, so
		// the outcome order is user-major regardless of worker count or
		// completion order — a determinism invariant the Workers=1-vs-N
		// test pins (DESIGN.md §7).
		out := make([]DetectionOutcome, l.world.NumUsers()*len(patterns))
		err = l.forEachUser(func(id int) error {
			denom := totals[id]
			if phases != nil {
				// The collectable stream starts mid-trace; its size is the
				// right denominator for "fraction of data consumed". The
				// sampler filters on timestamps alone, so the cheap
				// timestamps-only stream yields the exact count.
				src, err := l.world.TraceTimes(id, interval)
				if err != nil {
					return err
				}
				denom, err = trace.Count(trace.NewSampler(src, 0, phases[id]))
				if err != nil {
					return err
				}
			}
			src, err := l.world.Trace(id, interval)
			if err != nil {
				return err
			}
			if phases != nil {
				src = trace.NewSampler(src, 0, phases[id])
			}
			cd, err := core.NewCombinedDetector(profiles[id])
			if err != nil {
				return err
			}
			region, movement, err := cd.FirstBreaches(src)
			if err != nil {
				return err
			}
			for i, det := range [...]core.Detection{region, movement} {
				o := DetectionOutcome{User: id, Pattern: patterns[i], Fraction: 1}
				if det.Breached && denom > 0 {
					o.Detected = true
					o.Fraction = min(float64(det.PointsFed)/float64(denom), 1)
				}
				out[id*len(patterns)+i] = o
			}
			return nil
		})
		return out, err
	})
}

// Render prints the Figure 4 panels.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	cuts := []float64{0.05, 0.10, 0.20, 0.30, 0.50, 0.75, 1.0}

	panel := func(title string, data map[core.Pattern][]float64) {
		fmt.Fprintf(&b, "%s\n", title)
		fmt.Fprintf(&b, "%22s", "fraction collected ≤")
		for _, c := range cuts {
			fmt.Fprintf(&b, " %6.0f%%", c*100)
		}
		fmt.Fprintln(&b)
		for _, p := range patterns {
			e := stats.NewECDF(data[p])
			fmt.Fprintf(&b, "%22s", p)
			for _, c := range cuts {
				fmt.Fprintf(&b, " %6d", int(e.At(c)*float64(e.N())+0.5))
			}
			fmt.Fprintf(&b, "   (users; detected for %d)\n", e.N())
		}
		fmt.Fprintln(&b)
	}
	panel("Figure 4(a): locations needed for identification (from trace start)", r.FromStart)
	panel("Figure 4(b): locations needed for identification (random start)", r.RandomStart)

	b.WriteString("Figure 4(c): users with risk detected vs access interval\n")
	fmt.Fprintf(&b, "%14s %10s %10s\n", "interval", "pattern 1", "pattern 2")
	for _, row := range r.Sweep {
		fmt.Fprintf(&b, "%14s %10d %10d\n", intervalLabel(row.Interval),
			row.Detected[core.PatternRegion], row.Detected[core.PatternMovement])
	}
	fmt.Fprintln(&b)

	b.WriteString("Figure 4(d): which pattern detects faster\n")
	fmt.Fprintf(&b, "%14s %10s %10s %8s\n", "interval", "p2 faster", "p1 faster", "equal")
	for _, row := range r.Sweep {
		fmt.Fprintf(&b, "%14s %10d %10d %8d\n", intervalLabel(row.Interval),
			row.P2Faster, row.P1Faster, row.BothEqual)
	}
	return b.String()
}
