package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"locwatch/internal/core"
)

// Figure5Row is one interval of the entropy / degree-of-anonymity
// comparison.
type Figure5Row struct {
	Interval time.Duration

	// P2Leaks / P1Leaks count users for whom the respective pattern
	// yields the lower degree of anonymity (more serious leakage); Ties
	// are indistinguishable.
	P2Leaks int
	P1Leaks int
	Ties    int

	// MeanDeg is the average degree of anonymity per pattern.
	MeanDeg map[core.Pattern]float64

	// Identified counts users whose posterior concentrates on a single
	// profile (degree 0) per pattern.
	Identified map[core.Pattern]int
}

// Figure5Result is the adversary experiment.
type Figure5Result struct {
	Rows     []Figure5Row
	Profiles int // size of the adversary's profile collection
}

// Figure5 models the paper's third-party adversary: historical
// profiles of all users (the training window), freshly collected data
// at each access interval (the remaining window), Formula 2–5 applied
// per user under both patterns.
func Figure5(l *Lab) (*Figure5Result, error) {
	// The history and the native-rate collection are the two sides of
	// the split; one native replay builds both.
	windows := []window{beforeSplit}
	if slices.Contains(l.cfg.Intervals, 0) {
		windows = append(windows, afterSplit)
	}
	native, err := l.profilesAt(0, windows...)
	if err != nil {
		return nil, err
	}
	hist := native[beforeSplit]
	adv, err := core.NewAdversary(hist)
	if err != nil {
		return nil, err
	}

	res := &Figure5Result{Profiles: adv.NumProfiles()}
	for _, iv := range l.cfg.Intervals {
		row := Figure5Row{
			Interval:   iv,
			MeanDeg:    map[core.Pattern]float64{},
			Identified: map[core.Pattern]int{},
		}
		// Collected (post-split) profiles are cached per interval on the
		// lab, so reruns of the attack share one profile-building pass.
		collectedAll := native[afterSplit]
		if iv != 0 {
			if collectedAll, err = l.collectedAt(iv); err != nil {
				return nil, err
			}
		}
		// Per-user outcome slots, folded sequentially by user id below:
		// the degree-of-anonymity sums are floats, so a pinned summation
		// order keeps MeanDeg bit-identical across worker counts.
		type userOutcome struct {
			deg   [2]float64 // indexed by position in patterns
			ident [2]bool
		}
		outcomes := make([]userOutcome, l.world.NumUsers())
		err = l.forEachUser(func(id int) error {
			collected := collectedAll[id]
			for i, pattern := range patterns {
				outcome, err := adv.Identify(collected, pattern)
				if err != nil {
					return err
				}
				outcomes[id].deg[i] = outcome.DegAnonymity
				outcomes[id].ident[i] = outcome.Matches > 0 && outcome.DegAnonymity < 1e-9
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sums := map[core.Pattern]float64{}
		for _, uo := range outcomes {
			for i, pattern := range patterns {
				sums[pattern] += uo.deg[i]
				if uo.ident[i] {
					row.Identified[pattern]++
				}
			}
			d1, d2 := uo.deg[0], uo.deg[1]
			switch {
			case d2 < d1-1e-9:
				row.P2Leaks++
			case d1 < d2-1e-9:
				row.P1Leaks++
			default:
				row.Ties++
			}
		}
		n := float64(l.world.NumUsers())
		for _, pattern := range patterns {
			row.MeanDeg[pattern] = sums[pattern] / n
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the Figure 5 comparison.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: degree of anonymity after the inference attack (%d candidate profiles)\n", r.Profiles)
	fmt.Fprintf(&b, "%14s %9s %9s %6s %10s %10s %7s %7s\n",
		"interval", "p2 leaks", "p1 leaks", "ties", "meanDeg p1", "meanDeg p2", "id'd p1", "id'd p2")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14s %9d %9d %6d %10.3f %10.3f %7d %7d\n",
			intervalLabel(row.Interval), row.P2Leaks, row.P1Leaks, row.Ties,
			row.MeanDeg[core.PatternRegion], row.MeanDeg[core.PatternMovement],
			row.Identified[core.PatternRegion], row.Identified[core.PatternMovement])
	}
	return b.String()
}
