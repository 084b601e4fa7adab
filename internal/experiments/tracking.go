package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"locwatch/internal/anonymize"
	"locwatch/internal/confusion"
	"locwatch/internal/mitigation"
	"locwatch/internal/trace"
)

// trackGrid is the tracking adversary's observation cadence.
const trackGrid = 2 * time.Minute

// TrackingRow summarizes the population's trackability under one
// release policy.
type TrackingRow struct {
	Name string
	// MeanTTC / MedianTTC aggregate per-user mean time-to-confusion.
	MeanTTC   time.Duration
	MedianTTC time.Duration
	// NeverConfused counts users the adversary could follow through
	// their whole observable span without a single confusion event.
	NeverConfused int
}

// TrackingResult is the Hoh-style tracking-resistance ablation: how
// long can an adversary follow a user under each release policy?
type TrackingResult struct {
	Rows  []TrackingRow
	Users int
}

// AblationTracking measures time-to-confusion over the aligned
// population for raw releases and for the defenses that plausibly
// affect trackability.
func AblationTracking(l *Lab) (*TrackingResult, error) {
	type policy struct {
		name    string
		defense func() (mitigation.Defense, error) // nil releases the raw stream
	}
	policies := []policy{
		{"raw", nil},
		{"coarsen-1km", func() (mitigation.Defense, error) {
			return mitigation.NewCoarsen(l.cfg.Mobility.CityCenter, 1000)
		}},
		{"truncate-2digits", func() (mitigation.Defense, error) {
			return mitigation.NewTruncate(2), nil
		}},
		{"ratelimit-30min", func() (mitigation.Defense, error) {
			return mitigation.NewRateLimit(30 * time.Minute)
		}},
	}

	n := l.world.NumUsers()
	start := l.cfg.Mobility.Start
	end := start.AddDate(0, 0, l.cfg.Mobility.Days)
	res := &TrackingResult{Users: n}

	for _, p := range policies {
		sources := make([]trace.Source, n)
		for id := 0; id < n; id++ {
			src, err := l.world.Trace(id, trackGrid)
			if err != nil {
				return nil, err
			}
			if p.defense != nil {
				d, err := p.defense()
				if err != nil {
					return nil, err
				}
				src = mitigation.Stream(src, d)
			}
			sources[id] = src
		}
		aligned, err := anonymize.Align(sources, start, end, trackGrid)
		if err != nil {
			return nil, err
		}
		results, err := confusion.Population(aligned, confusion.DefaultParams())
		if err != nil {
			return nil, err
		}
		row := TrackingRow{Name: p.name}
		ttcs := make([]time.Duration, 0, n)
		var sum time.Duration
		for _, r := range results {
			if r.Tracked == 0 {
				continue
			}
			ttc := r.MeanTimeToConfusion()
			ttcs = append(ttcs, ttc)
			sum += ttc
			if r.Confusions == 0 {
				row.NeverConfused++
			}
		}
		if len(ttcs) > 0 {
			row.MeanTTC = sum / time.Duration(len(ttcs))
			sort.Slice(ttcs, func(i, j int) bool { return ttcs[i] < ttcs[j] })
			row.MedianTTC = ttcs[len(ttcs)/2]
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the tracking ablation.
func (r *TrackingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: time to confusion (Hoh et al.) under release policies, %d users\n", r.Users)
	fmt.Fprintf(&b, "%-18s %12s %12s %15s\n", "policy", "mean TTC", "median TTC", "never confused")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %12s %12s %15d\n",
			row.Name, row.MeanTTC.Round(time.Minute), row.MedianTTC.Round(time.Minute), row.NeverConfused)
	}
	return b.String()
}
