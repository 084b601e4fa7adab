package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/stats"
	"locwatch/internal/trace"
)

// start is where a detection sweep's collection begins.
type start int

const (
	atTraceStart  start = iota // the trace's first fix: Figures 4(a), 4(c) and 4(d)
	atRandomPhase              // each user's random phase: Figure 4(b)
)

// detectKey identifies one memoized detection sweep. The 4(b) phase
// offsets are derived deterministically from the world seed
// (randomPhases), so whether phases apply (not their values) completes
// the key.
type detectKey struct {
	interval time.Duration
	start    start
}

// DetectionOutcome is one user × pattern detection result.
type DetectionOutcome struct {
	User     int
	Pattern  core.Pattern
	Detected bool
	// Fraction of the app-collectable stream consumed when the breach
	// first fired (1 when never).
	Fraction float64
	// PointsFed and AtEnd are the first-breach core.Detection's: the
	// fixes fed when it was decided, and whether the end-of-stream
	// check decided it rather than the Due cadence.
	PointsFed int
	AtEnd     bool
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

	// 4(a) from the trace start and 4(b) from a random position (a
	// per-user deterministic phase in the first half of the period),
	// both at native rate, from one replay.
	native, err := l.detectAll(profiles, 0, atTraceStart, atRandomPhase)
	if err != nil {
		return nil, err
	}
	fromStart, randomStart := native[atTraceStart], native[atRandomPhase]
	for _, o := range fromStart {
		if o.Detected {
			res.FromStart[o.Pattern] = append(res.FromStart[o.Pattern], o.Fraction)
		}
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
			sweeps, err := l.detectAll(profiles, iv, atTraceStart)
			if err != nil {
				return nil, err
			}
			outcomes = sweeps[atTraceStart]
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

// randomPhases returns Figure 4(b)'s per-user start offsets: a
// deterministic phase in the first half of the period, seeded from
// the world seed.
func (l *Lab) randomPhases() []time.Duration {
	phases := make([]time.Duration, l.world.NumUsers())
	rng := rand.New(rand.NewSource(l.cfg.Mobility.Seed*7919 + 5))
	half := time.Duration(l.cfg.Mobility.Days) * 24 * time.Hour / 2
	for i := range phases {
		phases[i] = time.Duration(rng.Int63n(int64(half)))
	}
	return phases
}

// detectAll returns the detection sweeps at the given interval from
// each of starts, indexed by start: every user's first breach under
// both patterns against their own profile. Sweeps are memoized on the
// Lab: their inputs are fully determined by the lab configuration, so
// a driver rerun on the same lab replays nothing. The sweeps not
// memoized yet are built together, from one replay of each user's
// trace.
func (l *Lab) detectAll(profiles []*core.Profile, interval time.Duration, starts ...start) ([atRandomPhase + 1][]DetectionOutcome, error) {
	var out [atRandomPhase + 1][]DetectionOutcome
	var missing []start
	for _, st := range starts {
		if o, ok := l.detections.lookup(detectKey{interval, st}); ok {
			out[st] = o
		} else {
			missing = append(missing, st)
		}
	}
	if len(missing) == 0 {
		return out, nil
	}
	built, err := l.detectSweeps(profiles, interval, missing)
	if err != nil {
		return out, err
	}
	for i, st := range missing {
		out[st] = l.detections.put(detectKey{interval, st}, built[i])
	}
	return out, nil
}

// gatedWatch is one sweep's first-breach watch over a user's replay,
// behind the gate that decides which fixes the sweep collects.
type gatedWatch struct {
	gate     trace.Gate
	watch    *core.Watch
	withheld int // fixes the gate kept from the watch
}

// detectSweeps builds the detection sweeps at interval, one per entry
// of starts, from one replay of each user's trace: every fix goes to
// each sweep's watch that its gate keeps. A sweep from the trace start
// keeps every fix. A sweep from a random phase has the gate
// trace.NewGate(0, phase), the decision trace.NewSampler(src, 0,
// phase) makes, so its watch sees exactly the stream that sampler
// would release.
func (l *Lab) detectSweeps(profiles []*core.Profile, interval time.Duration, starts []start) ([][]DetectionOutcome, error) {
	sp := l.root.Child("detect_all")
	sp.SetAttr("interval", intervalLabel(interval))
	sp.SetAttr("phased", fmt.Sprint(slices.Contains(starts, atRandomPhase)))
	defer sp.End()

	totals, err := l.pointTotals(interval)
	if err != nil {
		return nil, err
	}
	var phases []time.Duration
	if slices.Contains(starts, atRandomPhase) {
		phases = l.randomPhases()
	}
	// Index-ordered reduction: every worker writes its user's slots, so
	// the outcome order is user-major regardless of worker count or
	// completion order — a determinism invariant the Workers=1-vs-N
	// test pins (DESIGN.md §7).
	out := make([][]DetectionOutcome, len(starts))
	for i := range out {
		out[i] = make([]DetectionOutcome, l.world.NumUsers()*len(patterns))
	}
	err = l.forEachUser(func(id int) error {
		ws := make([]gatedWatch, len(starts))
		for i, st := range starts {
			var phase time.Duration
			if st == atRandomPhase {
				phase = phases[id]
			}
			cd, err := core.NewCombinedDetector(profiles[id])
			if err != nil {
				return err
			}
			ws[i] = gatedWatch{gate: trace.NewGate(0, phase), watch: cd.Watch()}
		}
		src, err := l.world.Trace(id, interval)
		if err != nil {
			return err
		}
		// A watch behind a closed gate has been fed nothing, so it cannot
		// be done: the replay runs until every gate has opened, and the
		// withheld counts are final when it stops.
		for done := false; !done; {
			pt, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			done = true
			for i := range ws {
				w := &ws[i]
				switch {
				case w.watch.Done():
					continue
				case !w.gate.Keep(pt):
					w.withheld++
				default:
					if err := w.watch.Feed(pt); err != nil {
						return err
					}
				}
				done = done && w.watch.Done()
			}
		}
		for i := range ws {
			dets, err := ws[i].watch.Finish()
			if err != nil {
				return err
			}
			// The collectable stream is what the gate released, the right
			// denominator for "fraction of data consumed". A gate of
			// interval 0 withholds only the fixes before its phase, and
			// World traces are time-ordered, so that is the full count
			// less the fixes withheld in this replay.
			denom := totals[id] - ws[i].withheld
			for j, det := range dets {
				o := DetectionOutcome{User: id, Pattern: patterns[j], Fraction: 1, PointsFed: det.PointsFed, AtEnd: det.AtEnd}
				if det.Breached && denom > 0 {
					o.Detected = true
					o.Fraction = min(float64(det.PointsFed)/float64(denom), 1)
				}
				out[i][id*len(patterns)+j] = o
			}
		}
		return nil
	})
	return out, err
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
