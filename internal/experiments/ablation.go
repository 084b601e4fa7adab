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
		e := &perUser[id]
		e.PoIsTotal, e.PoIsDiscovered = ground[id].Coverage(obs)
		e.SensitiveTotal, e.SensitiveDiscovered = ground[id].SensitiveCoverage(obs, l.cfg.SensitiveMaxVisits)
		for _, pattern := range patterns {
			bin, err := ground[id].HisBin(obs, pattern)
			if err != nil {
				return err
			}
			if bin == 1 {
				e.Breaches = 1
				break
			}
		}
		return nil
	})
	var sum Exposure
	for _, e := range perUser {
		sum.PoIsDiscovered += e.PoIsDiscovered
		sum.PoIsTotal += e.PoIsTotal
		sum.SensitiveDiscovered += e.SensitiveDiscovered
		sum.SensitiveTotal += e.SensitiveTotal
		sum.Breaches += e.Breaches
	}
	return sum, err
}

// AblationMitigationResult evaluates the defense suite.
type AblationMitigationResult struct {
	Rows []AblationMitigationRow
}

// AblationMitigation replays every user's native-rate stream through
// each defense and re-measures PoI coverage, sensitive coverage, and
// His_bin breach.
func AblationMitigation(l *Lab) (*AblationMitigationResult, error) {
	ground, err := l.Profiles()
	if err != nil {
		return nil, err
	}
	anchor := l.cfg.Mobility.CityCenter
	decoyPos := geo.Destination(anchor, 45, l.cfg.Mobility.CityRadius*2)

	type defense struct {
		name string
		wrap func(id int, src trace.Source) (trace.Source, error)
	}
	defenses := []defense{
		{"none", func(_ int, s trace.Source) (trace.Source, error) { return s, nil }},
		{"truncate-4digits", func(_ int, s trace.Source) (trace.Source, error) {
			return mitigation.NewTruncate(s, 4), nil
		}},
		{"truncate-3digits", func(_ int, s trace.Source) (trace.Source, error) {
			return mitigation.NewTruncate(s, 3), nil
		}},
		{"truncate-2digits", func(_ int, s trace.Source) (trace.Source, error) {
			return mitigation.NewTruncate(s, 2), nil
		}},
		{"coarsen-250m", func(_ int, s trace.Source) (trace.Source, error) {
			return mitigation.NewCoarsen(s, anchor, 250)
		}},
		{"coarsen-1km", func(_ int, s trace.Source) (trace.Source, error) {
			return mitigation.NewCoarsen(s, anchor, 1000)
		}},
		{"ratelimit-60s", func(_ int, s trace.Source) (trace.Source, error) {
			return mitigation.NewRateLimit(s, time.Minute)
		}},
		{"ratelimit-600s", func(_ int, s trace.Source) (trace.Source, error) {
			return mitigation.NewRateLimit(s, 10*time.Minute)
		}},
		{"suppress-sensitive", func(id int, s trace.Source) (trace.Source, error) {
			var centers []geo.LatLon
			for _, pl := range ground[id].SensitivePlaces(l.cfg.SensitiveMaxVisits) {
				centers = append(centers, pl.Pos)
			}
			if len(centers) == 0 {
				return s, nil
			}
			return mitigation.NewSuppress(s, centers, 200)
		}},
		{"decoy", func(_ int, s trace.Source) (trace.Source, error) {
			return mitigation.NewDecoy(s, decoyPos), nil
		}},
	}

	res := &AblationMitigationResult{}
	for _, d := range defenses {
		row := AblationMitigationRow{Name: d.name}
		row.Exposure, err = l.exposure(ground, func(id int) (trace.Source, error) {
			src, err := l.world.Trace(id, 0)
			if err != nil {
				return nil, err
			}
			return d.wrap(id, src)
		})
		if err != nil {
			return nil, err
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
		outcomes, err := sub.detectAll(profiles, 0, nil)
		sub.Close()
		if err != nil {
			return nil, err
		}
		for _, o := range outcomes {
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
