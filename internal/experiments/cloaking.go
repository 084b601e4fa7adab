package experiments

import (
	"fmt"
	"strings"
	"time"

	"locwatch/internal/anonymize"
	"locwatch/internal/trace"
)

// cloakGrid is the snapshot cadence of the trusted cloaking server.
const cloakGrid = 2 * time.Minute

// CloakingRow is one k of the k-anonymity cloaking ablation.
type CloakingRow struct {
	K int
	Exposure

	// MeanAreaKm2 is the mean released-cell area (the utility cost).
	MeanAreaKm2 float64
	// SuppressedFrac is the fraction of release instants suppressed
	// because even the root cell failed k.
	SuppressedFrac float64
}

// CloakingResult is the trusted-server baseline ablation: what does
// Gruteser & Grunwald-style quadtree cloaking do to the paper's
// exposure metrics, and at what utility cost?
type CloakingResult struct {
	Rows []CloakingRow
}

// AblationCloaking aligns the whole population on a shared grid,
// cloaks every snapshot, and re-runs the exposure metrics per user on
// the released streams.
func AblationCloaking(l *Lab) (*CloakingResult, error) {
	ground, err := l.Profiles()
	if err != nil {
		return nil, err
	}
	n := l.world.NumUsers()
	sources := make([]trace.Source, n)
	for id := 0; id < n; id++ {
		src, err := l.world.Trace(id, cloakGrid)
		if err != nil {
			return nil, err
		}
		sources[id] = src
	}
	start := l.cfg.Mobility.Start
	end := start.AddDate(0, 0, l.cfg.Mobility.Days)
	aligned, err := anonymize.Align(sources, start, end, cloakGrid)
	if err != nil {
		return nil, err
	}

	res := &CloakingResult{}
	for _, k := range []int{2, 5, 10} {
		cloaker, err := anonymize.NewCloaker(l.cfg.Mobility.CityCenter, l.cfg.Mobility.CityRadius*2, k, 0)
		if err != nil {
			return nil, err
		}

		// Cloak every snapshot once, collecting per-user release streams.
		released := make([][]trace.Point, n)
		var areaSum float64
		var releases, suppressed int
		for tick := 0; tick < aligned.Ticks(); tick++ {
			positions, users := aligned.Snapshot(tick)
			if len(positions) == 0 {
				continue
			}
			boxes, oks := cloaker.CloakAll(positions)
			t := aligned.Start.Add(time.Duration(tick) * aligned.Interval)
			for i, u := range users {
				if !oks[i] {
					suppressed++
					continue
				}
				released[u] = append(released[u], trace.Point{Pos: boxes[i].Center(), T: t})
				areaSum += boxes[i].Area() / 1e6
				releases++
			}
		}

		row := CloakingRow{K: k}
		if releases > 0 {
			row.MeanAreaKm2 = areaSum / float64(releases)
		}
		if total := releases + suppressed; total > 0 {
			row.SuppressedFrac = float64(suppressed) / float64(total)
		}
		row.Exposure, err = l.exposure(ground, func(id int) (trace.Source, error) {
			return trace.NewSliceSource(released[id]), nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the cloaking ablation.
func (r *CloakingResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: k-anonymity quadtree cloaking (trusted-server baseline)\n")
	fmt.Fprintf(&b, "%4s %14s %16s %9s %12s %11s\n",
		"k", "PoIs found", "sensitive found", "breaches", "mean km²", "suppressed")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%4d %6d/%-7d %8d/%-7d %9d %12.2f %10.1f%%\n",
			row.K, row.PoIsDiscovered, row.PoIsTotal,
			row.SensitiveDiscovered, row.SensitiveTotal,
			row.Breaches, row.MeanAreaKm2, 100*row.SuppressedFrac)
	}
	return b.String()
}
