package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// floors are absolute changes too small to count as a regression
// whatever the relative bound says, by unit: timings read to a few
// milliseconds of scheduler noise at best.
var floors = map[string]float64{"s": 0.005, "ms": 0.2}

// verdict judges a metric's runs b against base runs a, given the
// metric's bound (a share of a's median) and direction:
//
//   - unresolved: either side's spread (interquartile range over
//     median) exceeds the bound, and not every run of b beats every
//     run of a;
//   - worse: b's median is worse than a's by more than the bound and
//     the unit's floor;
//   - better: every run of b beats every run of a with spreads above
//     the bound, or b's median beats a's by more than a's spread and b
//     wins at least nine in ten of the runs paired in order;
//   - same: anything else.
func verdict(m metricSpec, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	ma, mb := median(a), median(b)
	qa, qb := quartiles(a), quartiles(b)
	spread := math.Max(relSpread(qa, ma), relSpread(qb, mb))
	if spread > m.Bound {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	if better(ma, mb) && math.Abs(mb-ma) > math.Max(m.Bound*math.Abs(ma), floors[m.Unit]) {
		return "worse"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if better(mb, ma) && math.Abs(mb-ma) > qa[2]-qa[0] && 10*wins >= 9*pairs {
		return "better"
	}
	return "same"
}

func relSpread(q [3]float64, med float64) float64 {
	if med == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(med)
}

// readRecords loads a -out file: workload -> metric -> values, in run
// order.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, for each workload and metric present in both
// record files, each side's median, quartiles and run count, and for
// end-to-end metrics the verdict under BENCHMARK.json's bound.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	specs := map[string]metricSpec{}
	for _, m := range spec.PerLayer {
		specs[m.Name] = m
	}
	for _, m := range spec.EndToEnd {
		specs[m.Name] = m
	}
	var wls []string
	for wl := range a {
		if b[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	var sb strings.Builder
	for _, wl := range wls {
		var names []string
		for name := range a[wl] {
			if _, ok := b[wl][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		fmt.Fprintf(&sb, "%s\n", wl)
		for _, name := range names {
			xa, xb := a[wl][name], b[wl][name]
			m := specs[name]
			v := "-"
			if m.Bound > 0 {
				v = verdict(m, xa, xb)
			}
			qa, qb := quartiles(xa), quartiles(xb)
			change := "n/a"
			if ma := median(xa); ma != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(median(xb)/ma-1))
			}
			fmt.Fprintf(&sb, "  %-36s %-8s A %12.6g [%.6g, %.6g] n=%-3d B %12.6g [%.6g, %.6g] n=%-3d %8s  %s\n",
				name, m.Unit, median(xa), qa[0], qa[2], len(xa), median(xb), qb[0], qb[2], len(xb), change, v)
		}
	}
	_, err = io.WriteString(w, sb.String())
	return err
}
