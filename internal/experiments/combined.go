package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"locwatch/internal/core"
)

// CombinedRow compares the combined detector against the individual
// patterns at one interval.
type CombinedRow struct {
	Interval time.Duration

	DetectedP1       int
	DetectedP2       int
	DetectedCombined int

	// MeanFraction is the mean fraction of the collectable stream
	// consumed at first breach, over users where the detector fired.
	MeanFractionP1       float64
	MeanFractionP2       float64
	MeanFractionCombined float64
}

// CombinedResult evaluates the paper's concluding recommendation:
// "combine both patterns ... issue an alert when either of them
// detects the risk".
type CombinedResult struct {
	Rows []CombinedRow
}

// Combined runs the combined detector across the interval sweep and
// reports how much earlier and more often it fires than either pattern
// alone.
func Combined(l *Lab) (*CombinedResult, error) {
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
		// Per-user first-fire slots; the float fraction sums are folded
		// sequentially by user id below so the summation order (and hence
		// the mean, bit for bit) is independent of worker count.
		type firstFires struct{ p1, p2, c int }
		firsts := make([]firstFires, l.world.NumUsers())
		err = l.forEachUser(func(id int) error {
			cd, err := core.NewCombinedDetector(profiles[id])
			if err != nil {
				return err
			}
			src, err := l.world.Trace(id, iv)
			if err != nil {
				return err
			}
			// Only checks on the cadence count: unlike FirstBreach, there
			// is no last check at the end of the stream.
			var f firstFires
			for f.p1 == 0 || f.p2 == 0 {
				pt, err := src.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return err
				}
				if err := cd.Feed(pt); err != nil {
					return err
				}
				if !cd.Due() {
					continue
				}
				combined, p1, p2, err := cd.Check()
				if err != nil {
					return err
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
			return nil
		})
		if err != nil {
			return nil, err
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

// Render prints the combined-detector comparison.
func (r *CombinedResult) Render() string {
	var b strings.Builder
	b.WriteString("Combined detector (alert when either pattern fires) vs individual patterns\n")
	fmt.Fprintf(&b, "%14s %8s %8s %9s %9s %9s %9s\n",
		"interval", "p1 det", "p2 det", "comb det", "p1 frac", "p2 frac", "comb frac")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14s %8d %8d %9d %9.3f %9.3f %9.3f\n",
			intervalLabel(row.Interval),
			row.DetectedP1, row.DetectedP2, row.DetectedCombined,
			row.MeanFractionP1, row.MeanFractionP2, row.MeanFractionCombined)
	}
	return b.String()
}
