package experiments

import (
	"fmt"
	"strings"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/geo"
	"locwatch/internal/mitigation"
	"locwatch/internal/poi"
	"locwatch/internal/stats"
	"locwatch/internal/trace"
)

// AblationExtractorRow compares the two PoI extractors at one interval.
type AblationExtractorRow struct {
	Interval  time.Duration
	Buffer    int // stays found by the Spatio-Temporal buffer extractor
	StayPoint int // stays found by the classic stay-point baseline
}

// AblationExtractorResult compares the paper's extractor against the
// classic baseline across the interval sweep.
type AblationExtractorResult struct {
	Rows []AblationExtractorRow
}

// AblationExtractor runs both extractors over every user at every
// swept interval.
func AblationExtractor(l *Lab) (*AblationExtractorResult, error) {
	res := &AblationExtractorResult{}
	params := l.cfg.Core.Extractor
	if params == (poi.Params{}) {
		params = poi.DefaultParams()
	}
	type extractorCounts struct{ buffer, stayPoint int }
	perUser := make([]extractorCounts, l.world.NumUsers())
	for _, iv := range l.cfg.Intervals {
		row := AblationExtractorRow{Interval: iv}
		err := l.forEachUser(func(id int) error {
			src, err := l.world.Trace(id, iv)
			if err != nil {
				return err
			}
			nBuf := 0
			buf, err := poi.NewExtractor(params, func(poi.StayPoint) { nBuf++ })
			if err != nil {
				return err
			}
			nSP := 0
			sp, err := poi.NewStayPointExtractor(params, func(poi.StayPoint) { nSP++ })
			if err != nil {
				return err
			}
			err = trace.ForEach(src, func(p trace.Point) error {
				if err := buf.Feed(p); err != nil {
					return err
				}
				return sp.Feed(p)
			})
			if err != nil {
				return err
			}
			buf.Flush()
			buf.Release()
			sp.Flush()
			perUser[id] = extractorCounts{buffer: nBuf, stayPoint: nSP}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, c := range perUser {
			row.Buffer += c.buffer
			row.StayPoint += c.stayPoint
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the extractor comparison.
func (r *AblationExtractorResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: Spatio-Temporal buffer extractor vs classic stay-point baseline\n")
	fmt.Fprintf(&b, "%14s %10s %10s\n", "interval", "buffer", "staypoint")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14s %10d %10d\n", intervalLabel(row.Interval), row.Buffer, row.StayPoint)
	}
	return b.String()
}

// AblationMitigationRow is one defense's effect on the exposure
// metrics, aggregated over all users at native collection rate.
type AblationMitigationRow struct {
	Name string
	Exposure
}

// Exposure is what an observer's profiles reveal, summed over users:
// ground-truth places and sensitive places discovered, and users whose
// observed stream still matches their own profile under either pattern
// (the combined detector).
type Exposure struct {
	PoIsDiscovered int
	PoIsTotal      int

	SensitiveDiscovered int
	SensitiveTotal      int

	Breaches int
}

// add sums o into e.
func (e *Exposure) add(o Exposure) {
	e.PoIsDiscovered += o.PoIsDiscovered
	e.PoIsTotal += o.PoIsTotal
	e.SensitiveDiscovered += o.SensitiveDiscovered
	e.SensitiveTotal += o.SensitiveTotal
	e.Breaches += o.Breaches
}

// score measures what the observed profile obs reveals of a user whose
// ground-truth profile is gt: PoI and sensitive-place coverage, and
// one breach when either pattern's His_bin fires. It only reads both
// profiles, so obs may be gt itself.
func (l *Lab) score(gt, obs *core.Profile) (Exposure, error) {
	var e Exposure
	e.PoIsTotal, e.PoIsDiscovered = gt.Coverage(obs)
	e.SensitiveTotal, e.SensitiveDiscovered = gt.SensitiveCoverage(obs, l.cfg.SensitiveMaxVisits)
	for _, pattern := range patterns {
		bin, err := gt.HisBin(obs, pattern)
		if err != nil {
			return Exposure{}, err
		}
		if bin == 1 {
			e.Breaches = 1
			break
		}
	}
	return e, nil
}

// exposure builds each user's observed profile from the stream observe
// returns, scores it against the user's ground-truth profile, and sums
// the scores in user-id order.
func (l *Lab) exposure(ground []*core.Profile, observe func(id int) (trace.Source, error)) (Exposure, error) {
	perUser := make([]Exposure, l.world.NumUsers())
	err := l.forEachUser(func(id int) error {
		src, err := observe(id)
		if err != nil {
			return err
		}
		obs, err := core.BuildProfile(src, l.cfg.Mobility.CityCenter, l.cfg.Core)
		if err != nil {
			return err
		}
		perUser[id], err = l.score(ground[id], obs)
		return err
	})
	var sum Exposure
	for _, e := range perUser {
		sum.add(e)
	}
	return sum, err
}

// AblationMitigationResult evaluates the defense suite.
type AblationMitigationResult struct {
	Rows []AblationMitigationRow
}

// observer is one defense of the sweep and the profile builder that
// sees what it releases.
type observer struct {
	slot int // the defense's row
	d    mitigation.Defense
	b    *core.ProfileBuilder
}

// observers feeds one replay through several defenses, each into its
// own builder. AblationMitigation passes its Feed to trace.ForEach as a
// method value, for the reason extractors gives.
type observers []observer

// Feed applies every defense to p and feeds what each releases to its
// builder, stopping at the first error.
func (obs observers) Feed(p trace.Point) error {
	for _, o := range obs {
		if q, ok := o.d.Apply(p); ok {
			if err := o.b.Feed(q); err != nil {
				return err
			}
		}
	}
	return nil
}

// AblationMitigation replays every user's native-rate stream through
// each defense and re-measures PoI coverage, sensitive coverage, and
// His_bin breach.
//
// Each user's trace is generated once and feeds every defense, each
// into its own profile builder. A defense that releases the raw stream
// (none, and suppression for a user without sensitive places) would
// rebuild the user's ground-truth profile from the same trace with the
// same parameters, so ground[id] is scored in its place.
func AblationMitigation(l *Lab) (*AblationMitigationResult, error) {
	ground, err := l.Profiles()
	if err != nil {
		return nil, err
	}
	anchor := l.cfg.Mobility.CityCenter
	decoyPos := geo.Destination(anchor, 45, l.cfg.Mobility.CityRadius*2)

	// Each defense is built per user: RateLimit keeps one stream's
	// schedule, and suppression protects the user's own places. A nil
	// defense releases the raw stream.
	type defense struct {
		name  string
		build func(id int) (mitigation.Defense, error)
	}
	defenses := [...]defense{
		{"none", func(int) (mitigation.Defense, error) { return nil, nil }},
		{"truncate-4digits", func(int) (mitigation.Defense, error) { return mitigation.NewTruncate(4), nil }},
		{"truncate-3digits", func(int) (mitigation.Defense, error) { return mitigation.NewTruncate(3), nil }},
		{"truncate-2digits", func(int) (mitigation.Defense, error) { return mitigation.NewTruncate(2), nil }},
		{"coarsen-250m", func(int) (mitigation.Defense, error) { return mitigation.NewCoarsen(anchor, 250) }},
		{"coarsen-1km", func(int) (mitigation.Defense, error) { return mitigation.NewCoarsen(anchor, 1000) }},
		{"ratelimit-60s", func(int) (mitigation.Defense, error) { return mitigation.NewRateLimit(time.Minute) }},
		{"ratelimit-600s", func(int) (mitigation.Defense, error) { return mitigation.NewRateLimit(10 * time.Minute) }},
		{"suppress-sensitive", func(id int) (mitigation.Defense, error) {
			var centers []geo.LatLon
			for _, pl := range ground[id].SensitivePlaces(l.cfg.SensitiveMaxVisits) {
				centers = append(centers, pl.Pos)
			}
			if len(centers) == 0 {
				return nil, nil
			}
			return mitigation.NewSuppress(centers, 200)
		}},
		{"decoy", func(int) (mitigation.Defense, error) { return mitigation.NewDecoy(decoyPos), nil }},
	}

	perUser := make([][len(defenses)]Exposure, l.world.NumUsers())
	err = l.forEachUser(func(id int) error {
		var observed [len(defenses)]*core.Profile
		fan := make(observers, 0, len(defenses))
		defer func() {
			for _, o := range fan {
				o.b.Release()
			}
		}()
		for i, d := range defenses {
			def, err := d.build(id)
			if err != nil {
				return err
			}
			if def == nil {
				observed[i] = ground[id]
				continue
			}
			b, err := core.NewProfileBuilder(anchor, l.cfg.Core)
			if err != nil {
				return err
			}
			fan = append(fan, observer{slot: i, d: def, b: b})
		}
		src, err := l.world.Trace(id, 0)
		if err != nil {
			return err
		}
		if err := trace.ForEach(src, fan.Feed); err != nil {
			return err
		}
		for _, o := range fan {
			observed[o.slot] = o.b.Profile()
		}
		for i, obs := range observed {
			if perUser[id][i], err = l.score(ground[id], obs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationMitigationResult{}
	for i, d := range defenses {
		row := AblationMitigationRow{Name: d.name}
		for _, e := range perUser {
			row.add(e[i])
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the defense comparison.
func (r *AblationMitigationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: defense effectiveness at native collection rate\n")
	fmt.Fprintf(&b, "%-20s %14s %16s %9s\n", "defense", "PoIs found", "sensitive found", "breaches")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %6d/%-7d %8d/%-7d %9d\n",
			row.Name, row.PoIsDiscovered, row.PoIsTotal,
			row.SensitiveDiscovered, row.SensitiveTotal, row.Breaches)
	}
	return b.String()
}

// AblationWeightingResult compares the adversary's posterior weighting
// (sensible p-value weighting vs the paper's literal Formula 2).
type AblationWeightingResult struct {
	PValue    Figure5Row
	ChiSquare Figure5Row
}

// AblationWeighting reruns the native-rate Figure 5 attack under both
// weightings.
func AblationWeighting(l *Lab) (*AblationWeightingResult, error) {
	res := &AblationWeightingResult{}
	for i, weighting := range []core.Weighting{core.WeightPValue, core.WeightChiSquare} {
		cfg := l.cfg
		cfg.Core.Weighting = weighting
		cfg.Intervals = []time.Duration{0}
		sub, err := NewLab(cfg)
		if err != nil {
			return nil, err
		}
		f5, err := Figure5(sub)
		sub.Close()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			res.PValue = f5.Rows[0]
		} else {
			res.ChiSquare = f5.Rows[0]
		}
	}
	return res, nil
}

// Render prints the weighting comparison.
func (r *AblationWeightingResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: adversary posterior weighting (native rate)\n")
	fmt.Fprintf(&b, "%-12s %9s %9s %6s %10s %10s\n", "weighting", "p2 leaks", "p1 leaks", "ties", "meanDeg p1", "meanDeg p2")
	for _, row := range []struct {
		name string
		r    Figure5Row
	}{{"p-value", r.PValue}, {"chi-square", r.ChiSquare}} {
		fmt.Fprintf(&b, "%-12s %9d %9d %6d %10.3f %10.3f\n",
			row.name, row.r.P2Leaks, row.r.P1Leaks, row.r.Ties,
			row.r.MeanDeg[core.PatternRegion], row.r.MeanDeg[core.PatternMovement])
	}
	return b.String()
}

// AblationTailResult compares the chi-square tail conventions (the
// paper's literal lower-tail prose vs the conventional upper tail).
type AblationTailResult struct {
	Upper map[core.Pattern]int // users detected at native rate
	Lower map[core.Pattern]int
}

// AblationTail reruns the native-rate detection under both tails.
func AblationTail(l *Lab) (*AblationTailResult, error) {
	res := &AblationTailResult{
		Upper: map[core.Pattern]int{},
		Lower: map[core.Pattern]int{},
	}
	for _, tail := range []stats.Tail{stats.TailUpper, stats.TailLower} {
		cfg := l.cfg
		cfg.Core.Tail = tail
		cfg.Intervals = []time.Duration{0}
		sub, err := NewLab(cfg)
		if err != nil {
			return nil, err
		}
		profiles, err := sub.Profiles()
		if err != nil {
			sub.Close()
			return nil, err
		}
		sweeps, err := sub.detectAll(profiles, 0, atTraceStart)
		sub.Close()
		if err != nil {
			return nil, err
		}
		for _, o := range sweeps[atTraceStart] {
			if !o.Detected {
				continue
			}
			if tail == stats.TailUpper {
				res.Upper[o.Pattern]++
			} else {
				res.Lower[o.Pattern]++
			}
		}
	}
	return res, nil
}

// Render prints the tail comparison.
func (r *AblationTailResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: chi-square tail convention (users detected, native rate)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s\n", "tail", "pattern 1", "pattern 2")
	fmt.Fprintf(&b, "%-8s %10d %10d\n", "upper", r.Upper[core.PatternRegion], r.Upper[core.PatternMovement])
	fmt.Fprintf(&b, "%-8s %10d %10d\n", "lower", r.Lower[core.PatternRegion], r.Lower[core.PatternMovement])
	return b.String()
}
