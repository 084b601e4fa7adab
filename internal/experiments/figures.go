package experiments

import (
	"fmt"
	"strings"
	"time"

	"locwatch/internal/market"
	"locwatch/internal/poi"
	"locwatch/internal/trace"
)

// MarketStudy runs the §III measurement campaign over the synthetic
// market: static manifest extraction, the device protocol per
// declaring app, and aggregation into the §III counts, Table I, and
// the Figure 1 interval CDF.
func MarketStudy(cfg Config) (*market.Report, error) {
	m, err := market.Generate(cfg.MarketSeed)
	if err != nil {
		return nil, err
	}
	obs, err := market.Campaign{Workers: cfg.workers()}.Run(m)
	if err != nil {
		return nil, err
	}
	return market.Aggregate(obs, m.Len()), nil
}

// Figure2Row is one bar of Figure 2 / one column of Table III.
type Figure2Row struct {
	SetID     int
	VisitTime time.Duration
	Radius    float64
	PoIs      int // stay points extracted across all users
}

// Figure2Result is the Table III parameter sweep.
type Figure2Result struct {
	Rows []Figure2Row
}

// extractors feeds one replay to several extractors in order.
type extractors []*poi.Extractor

// Feed feeds p to every extractor and stops at the first error.
func (exs extractors) Feed(p trace.Point) error {
	for _, ex := range exs {
		if err := ex.Feed(p); err != nil {
			return err
		}
	}
	return nil
}

// Figure2 extracts PoIs from every user's full-rate trace under the
// paper's six parameter sets (radius 50/100 m × visit 10/20/30 min).
//
// Each user's trace is generated once and fed to one extractor per
// radius, built with the shortest visit time. MinVisit only selects
// which closed stays an extractor emits (poi.Params), so the stays a
// longer visit time v emits are exactly those with Duration() ≥ v:
// every emitted stay counts toward each set whose visit time it
// reaches.
func Figure2(l *Lab) (*Figure2Result, error) {
	// The six sets are every radius × every visit time, radius-major:
	// set 1 is (50 m, 10 min), set 6 (100 m, 30 min). Visit times
	// ascend, so visits[0] is the shortest.
	radii := [...]float64{50, 100}
	visits := [...]time.Duration{10 * time.Minute, 20 * time.Minute, 30 * time.Minute}
	const nVisits = len(visits)
	counts := make([][len(radii) * nVisits]int, l.world.NumUsers())
	err := l.forEachUser(func(id int) error {
		src, err := l.world.Trace(id, 0)
		if err != nil {
			return err
		}
		exs := make(extractors, 0, len(radii))
		defer func() {
			for _, ex := range exs {
				ex.Release()
			}
		}()
		for r, radius := range radii {
			n := counts[id][r*nVisits : (r+1)*nVisits]
			params := poi.Params{Radius: radius, MinVisit: visits[0]}
			ex, err := poi.NewExtractor(params, func(s poi.StayPoint) {
				for v, visit := range visits {
					if s.Duration() >= visit {
						n[v]++
					}
				}
			})
			if err != nil {
				return err
			}
			exs = append(exs, ex)
		}
		if err := trace.ForEach(src, exs.Feed); err != nil {
			return err
		}
		for _, ex := range exs {
			ex.Flush()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{}
	for r, radius := range radii {
		for v, visit := range visits {
			set := r*nVisits + v
			total := 0
			for _, c := range counts {
				total += c[set]
			}
			res.Rows = append(res.Rows, Figure2Row{
				SetID: set + 1, VisitTime: visit, Radius: radius, PoIs: total,
			})
		}
	}
	return res, nil
}

// Render prints Table III alongside the Figure 2 PoI counts.
func (r *Figure2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table III / Figure 2: PoIs extracted under parameter sets\n")
	fmt.Fprintf(&b, "%5s %12s %9s %8s\n", "set", "visit(min)", "radius(m)", "PoIs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%5d %12.0f %9.0f %8d\n",
			row.SetID, row.VisitTime.Minutes(), row.Radius, row.PoIs)
	}
	return b.String()
}

// Figure3Row is one interval of the Figure 3 frequency sweep.
type Figure3Row struct {
	Interval time.Duration
	PoIs     int     // 3(a): stay points extracted at this access interval
	Fraction float64 // 3(a): PoIs / PoIs at native rate

	// 3(b): sensitive-PoI exposure, for thresholds ≤1, ≤2, ≤3 visits.
	SensitiveDiscovered [3]int
	SensitiveTotal      [3]int
}

// Figure3Result is the Figure 3(a)/(b) frequency sweep.
type Figure3Result struct {
	Rows []Figure3Row
	// AppsWithAllPoIs is the fraction of background apps (Figure 1
	// population) whose access interval is small enough to extract the
	// full PoI set — the paper's "about 45.1% of apps can acquire all
	// PoIs".
	AppsWithAllPoIs float64
	// KneeInterval is the largest swept interval still yielding ≥ 99%
	// of the native-rate PoIs.
	KneeInterval time.Duration
}

// Figure3 sweeps the background-access interval and measures PoI_total
// and PoI_sensitive exposure, joining the market's Figure 1 CDF to
// obtain the fraction of real apps that collect everything.
func Figure3(l *Lab, marketReport *market.Report) (*Figure3Result, error) {
	ground, err := l.Profiles()
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{}
	for _, iv := range l.cfg.Intervals {
		row := Figure3Row{Interval: iv}
		// The lab caches the per-interval observed profiles, so reruns
		// and other experiments on the same sweep share the heavy
		// profile-building pass; the aggregation below is cheap.
		observed, err := l.ProfilesAt(iv)
		if err != nil {
			return nil, err
		}
		for id, obs := range observed {
			row.PoIs += obs.NumVisits()
			for t := 1; t <= 3; t++ {
				total, disc := ground[id].SensitiveCoverage(obs, t)
				row.SensitiveTotal[t-1] += total
				row.SensitiveDiscovered[t-1] += disc
			}
		}
		res.Rows = append(res.Rows, row)
	}

	// Normalize against the native-rate row (interval 0 if present,
	// else the smallest interval).
	maxPoIs := 0
	for _, row := range res.Rows {
		if row.PoIs > maxPoIs {
			maxPoIs = row.PoIs
		}
	}
	for i := range res.Rows {
		if maxPoIs > 0 {
			res.Rows[i].Fraction = float64(res.Rows[i].PoIs) / float64(maxPoIs)
		}
	}

	// Knee: the largest interval retaining ≥99% of the PoIs; joining
	// with the Figure 1 CDF gives the fraction of background apps that
	// acquire (essentially) all PoIs.
	for _, row := range res.Rows {
		if row.Fraction >= 0.99 && row.Interval > res.KneeInterval {
			res.KneeInterval = row.Interval
		}
	}
	if marketReport != nil {
		knee := res.KneeInterval.Seconds()
		if knee == 0 {
			knee = 1
		}
		res.AppsWithAllPoIs = marketReport.IntervalECDF().At(knee)
	}
	return res, nil
}

// Render prints the Figure 3(a) and 3(b) series.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3(a): PoI_total vs access interval\n")
	fmt.Fprintf(&b, "%14s %8s %9s\n", "interval", "PoIs", "fraction")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14s %8d %9.3f\n", intervalLabel(row.Interval), row.PoIs, row.Fraction)
	}
	fmt.Fprintf(&b, "knee interval: %s; background apps acquiring all PoIs: %.1f%%\n\n",
		intervalLabel(r.KneeInterval), 100*r.AppsWithAllPoIs)

	b.WriteString("Figure 3(b): PoI_sensitive discovered vs access interval\n")
	fmt.Fprintf(&b, "%14s %10s %10s %10s\n", "interval", "visits≤1", "visits≤2", "visits≤3")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14s %4d/%-5d %4d/%-5d %4d/%-5d\n",
			intervalLabel(row.Interval),
			row.SensitiveDiscovered[0], row.SensitiveTotal[0],
			row.SensitiveDiscovered[1], row.SensitiveTotal[1],
			row.SensitiveDiscovered[2], row.SensitiveTotal[2])
	}
	return b.String()
}
