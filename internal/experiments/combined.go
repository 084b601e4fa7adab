package experiments

import (
	"fmt"
	"strings"
	"time"
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
// alone. It is a fold over Figure 4's memoized detection sweeps: a
// sweep replays each user's trace through a core.CombinedDetector on
// the Due cadence, which is the alert the combined detector raises.
// Both patterns start checked together on one shared builder, so their
// checks fall on the same fixes until one breaches; after that the
// other keeps the same cadence. A pattern's first fire is therefore
// its breach's PointsFed, and the combined first fire is the smaller
// of the two: PointsFed never decreases between checks. A result of
// the end-of-stream check (AtEnd) is no alert and counts as no fire.
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
		sweeps, err := l.detectAll(profiles, iv, atTraceStart)
		if err != nil {
			return nil, err
		}
		outcomes := sweeps[atTraceStart]
		row := CombinedRow{Interval: iv}
		// The float fraction sums are folded sequentially by user id, so
		// the summation order (and hence the mean, bit for bit) is
		// independent of worker count.
		var sumP1, sumP2, sumC float64
		for id, total := range totals {
			if total == 0 {
				continue
			}
			var first [2]int // per pattern, the fixes fed at its first fire; 0 when none
			for i := range patterns {
				if o := outcomes[id*len(patterns)+i]; o.Detected && !o.AtEnd {
					first[i] = o.PointsFed
				}
			}
			p1, p2, c := first[0], first[1], first[0]
			if c == 0 || (p2 > 0 && p2 < c) {
				c = p2
			}
			if p1 > 0 {
				row.DetectedP1++
				sumP1 += float64(p1) / float64(total)
			}
			if p2 > 0 {
				row.DetectedP2++
				sumP2 += float64(p2) / float64(total)
			}
			if c > 0 {
				row.DetectedCombined++
				sumC += float64(c) / float64(total)
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
