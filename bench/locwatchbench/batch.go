package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"locwatch/internal/experiments"
	"locwatch/internal/market"
	"locwatch/internal/mobility"
	"locwatch/internal/obs"
	"locwatch/internal/trace"
)

// batchDriver is one artifact of a batch workload. run returns the
// artifact's rendered output, which the output oracle hashes.
type batchDriver struct {
	name string // experiments.<name>_s in the layer table
	run  func(l *experiments.Lab, st *repState) (string, error)
}

// repState carries what one artifact of a rep hands to a later one.
type repState struct {
	market *market.Report
}

func rendered[T interface{ Render() string }](f func(*experiments.Lab) (T, error)) func(*experiments.Lab, *repState) (string, error) {
	return func(l *experiments.Lab, _ *repState) (string, error) {
		r, err := f(l)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// batchSuites are the artifact sets of the batch workloads, in the
// order a rep produces them.
var batchSuites = map[string][]batchDriver{
	"figures": {
		{"market_study", func(l *experiments.Lab, st *repState) (string, error) {
			r, err := experiments.MarketStudy(l.Config())
			if err != nil {
				return "", err
			}
			st.market = r
			return fmt.Sprintf("%s%s%s§III declaring=%d background=%d\n",
				r.RenderSectionIII(), r.RenderTableI(), r.RenderFigure1(), r.Declaring, r.Background), nil
		}},
		{"figure2", rendered(experiments.Figure2)},
		{"figure3", func(l *experiments.Lab, st *repState) (string, error) {
			r, err := experiments.Figure3(l, st.market)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"figure4", rendered(experiments.Figure4)},
		{"figure5", rendered(experiments.Figure5)},
		{"combined", rendered(experiments.Combined)},
	},
	"ablations": {
		{"ablation_extractor", rendered(experiments.AblationExtractor)},
		{"ablation_mitigation", rendered(experiments.AblationMitigation)},
		{"ablation_cloaking", rendered(experiments.AblationCloaking)},
	},
}

// pinnedDigests are the artifact digests of the batch workloads on the
// development seed. Any other seed must reproduce its own digest rep
// after rep.
var pinnedDigests = map[string]string{
	"figures":   "dfc2569b475cfa478c6aa4d60991fbb7ebd9601c6a9da908eea415b0caae456b",
	"ablations": "1625c9ad36d86f901e1f15d076f364cf19baad4758b87c27eb81452e15544cd8",
}

// labStages are the Lab's own cache-building spans.
var labStages = []string{"profiles_at", "historical_profiles", "collected_at", "point_totals"}

const (
	setupSamples = 51 // cold NewLab calls per run; setup_s is their median
	minReps      = 3  // measured reps per kind (untraced, traced) at least
)

// rep is one measured artifact set on a cold Lab.
type rep struct {
	digest  string
	wall    time.Duration
	cpu     time.Duration
	rss     int64 // peak RSS during the rep, bytes
	drivers map[string]time.Duration

	// Traced reps only.
	vars    varsDoc
	stages  map[string]time.Duration
	alloc   uint64
	profile string
}

func runBatch(ctx context.Context, o options) (*result, error) {
	drivers := batchSuites[o.workload]
	cfg := experiments.Quick()
	cfg.Mobility.Seed = worldSeed(o.seed)

	input, err := nativePassFixes(cfg.Mobility)
	if err != nil {
		return nil, err
	}
	dev := cfg.Mobility
	dev.Seed = devSeed
	devInput, err := nativePassFixes(dev)
	if err != nil {
		return nil, err
	}
	// newLab builds a cold Lab, reporting to reg when it is not nil.
	newLab := func(reg *obs.Registry) (*experiments.Lab, error) {
		c := cfg
		c.Obs = reg
		return experiments.NewLab(c)
	}
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		t := time.Now()
		l, err := newLab(nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		//lint:ignore ctxflow the Lab has run nothing, so Close only stops its idle workers
		l.Close()
	}

	warm, err := runRep(ctx, newLab, drivers, "")
	if err != nil {
		return nil, err
	}
	if pin := pinnedDigests[o.workload]; cfg.Mobility.Seed == devSeed && warm.digest != pin {
		return nil, fmt.Errorf("%s: artifact digest %s, pinned %s", o.workload, warm.digest, pin)
	}
	logf("%s: artifact digest %s", o.workload, warm.digest)

	var plain, traced []rep
	deadline := time.Now().Add(o.window)
	for i := 0; ; i++ {
		more := len(plain) < minReps || (o.trace && len(traced) < minReps)
		if !more && !time.Now().Before(deadline) {
			break
		}
		trace := ""
		if o.trace && i%2 == 1 {
			trace = filepath.Join(o.traceDir, fmt.Sprintf("rep%d", len(traced)+1))
		}
		r, err := runRep(ctx, newLab, drivers, trace)
		if err != nil {
			return nil, err
		}
		if r.digest != warm.digest {
			return nil, fmt.Errorf("%s: artifact digest changed between reps: %s, then %s", o.workload, warm.digest, r.digest)
		}
		logf("%s: rep %d: wall %v, cpu %v, traced %t", o.workload, i+1, r.wall.Round(time.Millisecond), r.cpu.Round(time.Millisecond), trace != "")
		if trace == "" {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
		}
	}

	res := newResult()
	res.attempted = (1 + len(plain) + len(traced)) * len(drivers)
	if o.trace {
		return res, batchLayers(ctx, res, drivers, plain, traced, input, cfg.Workers)
	}
	walls := make([]float64, len(plain))
	cpus := make([]float64, len(plain))
	rss := make([]float64, len(plain))
	for i, r := range plain {
		walls[i] = ms(r.wall)
		cpus[i] = ms(r.cpu)
		rss[i] = float64(r.rss) / (1 << 20)
	}
	// A seed's world is the batch input, and its size varies by about
	// a fifth from seed to seed; wall time is stated at the size of the
	// development world so runs on different seeds compare.
	res.set("setup_s", median(setups), len(setups))
	res.set("latency_p50_ms", median(walls)*float64(devInput)/float64(input), len(walls))
	res.set("max_rss_mb", median(rss), len(rss))
	res.set("cpu_ms_per_kfix", median(cpus)/(float64(input)/1000), len(cpus))
	res.set("throughput_fixes_s", float64(input)/(median(walls)/1000), len(walls))
	return res, nil
}

// nativePassFixes is the batch input size: the fixes of one native-rate
// pass over every user of the world.
func nativePassFixes(mc mobility.Config) (int, error) {
	w, err := mobility.New(mc)
	if err != nil {
		return 0, err
	}
	total := 0
	for u := 0; u < w.NumUsers(); u++ {
		src, err := w.TraceTimes(u, 0)
		if err != nil {
			return 0, err
		}
		n, err := trace.Count(src)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// runRep builds a cold Lab and produces the artifact set once. With a
// trace path prefix the rep is traced: the Lab reports to its own
// registry, the harness opens a span around each artifact, the process
// is CPU-profiled for the rep, and the profile and spans are written
// next to the prefix.
func runRep(ctx context.Context, newLab func(*obs.Registry) (*experiments.Lab, error), drivers []batchDriver, trace string) (rep, error) {
	if err := ctx.Err(); err != nil {
		return rep{}, err
	}
	// No rep pays for the garbage of the one before, and the peak RSS
	// read after the rep is the rep's own.
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return rep{}, fmt.Errorf("resetting peak RSS: %w", err)
	}
	var reg *obs.Registry
	if trace != "" {
		reg = obs.NewRegistry()
	}
	l, err := newLab(reg)
	if err != nil {
		return rep{}, err
	}
	defer l.Close()

	r := rep{drivers: map[string]time.Duration{}}
	var stopProfile func() error
	var ms0 runtime.MemStats
	if trace != "" {
		r.profile = trace + "-cpu.pprof"
		if stopProfile, err = startCPUProfile(r.profile); err != nil {
			return rep{}, err
		}
		runtime.ReadMemStats(&ms0)
	}
	h := sha256.New()
	var st repState
	root := reg.Tracer().Start("rep")
	cpu0, start := selfCPU(), time.Now()
	for _, d := range drivers {
		sp := root.Child(d.name)
		t := time.Now()
		out, err := d.run(l, &st)
		r.drivers[d.name] = time.Since(t)
		sp.End()
		if err != nil {
			if stopProfile != nil {
				err = errors.Join(err, stopProfile())
			}
			return rep{}, fmt.Errorf("%s: %w", d.name, err)
		}
		_, _ = fmt.Fprintf(h, "== %s\n%s", d.name, out) // hash writes never fail
	}
	r.wall, r.cpu = time.Since(start), selfCPU()-cpu0
	root.End()
	if r.rss, err = statusKB("/proc/self/status", "VmHWM:"); err != nil {
		return rep{}, err
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	if trace == "" {
		return r, nil
	}

	if err := stopProfile(); err != nil {
		return rep{}, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	l.Close() // ends the Lab's root span, so the trace file has it
	r.stages = map[string]time.Duration{}
	for _, sp := range reg.Tracer().Spans() {
		r.stages[sp.Name] += time.Duration(sp.DurationNS)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return rep{}, err
	}
	if err := json.Unmarshal(buf.Bytes(), &r.vars); err != nil {
		return rep{}, err
	}
	return r, writeFile(trace+"-spans.json", reg.Tracer().WriteJSON)
}

func startCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// batchLayers fills the per-layer table of a traced batch run: per-rep
// medians over the traced reps, and the tracing overhead against the
// untraced reps of the same run.
func batchLayers(ctx context.Context, res *result, drivers []batchDriver, plain, traced []rep, input, workers int) error {
	per := func(f func(r rep) float64) float64 {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = f(r)
		}
		return median(xs)
	}
	counter := func(r rep, name string) float64 { return float64(r.vars.Counters[name]) }
	ratio := func(hits, total float64) float64 {
		if total == 0 {
			return 0
		}
		return hits / total
	}

	for _, d := range drivers {
		res.set("experiments."+d.name+"_s", per(func(r rep) float64 { return r.drivers[d.name].Seconds() }), len(traced))
	}
	for _, s := range labStages {
		res.set("experiments.stage."+s+"_s", per(func(r rep) float64 { return r.stages[s].Seconds() }), len(traced))
	}
	res.set("experiments.cache_hit_ratio", per(func(r rep) float64 {
		var hits, misses float64
		for _, c := range []string{"profiles", "hist", "collected", "totals", "detect"} {
			hits += counter(r, "locwatch_lab_"+c+"_cache_hits_total")
			misses += counter(r, "locwatch_lab_"+c+"_cache_misses_total")
		}
		return ratio(hits, hits+misses)
	}), len(traced))
	busy := func(r rep) float64 { return r.vars.Histograms["locwatch_lab_pool_task_seconds"].Sum }
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) // the Lab's default
	}
	res.set("experiments.pool_busy_s", per(busy), len(traced))
	res.set("experiments.pool_util", per(func(r rep) float64 { return busy(r) / (r.wall.Seconds() * float64(workers)) }), len(traced))

	fixes := func(r rep) float64 { return counter(r, "locwatch_mobility_fixes_total") }
	res.set("mobility.fixes", per(fixes), len(traced))
	res.set("mobility.native_passes", per(func(r rep) float64 { return fixes(r) / float64(input) }), len(traced))
	res.set("mobility.plan_hit_ratio", per(func(r rep) float64 {
		hits := counter(r, "locwatch_mobility_plan_cache_hits_total")
		return ratio(hits, hits+counter(r, "locwatch_mobility_plan_builds_total"))
	}), len(traced))
	for name, c := range map[string]string{
		"poi.points": "locwatch_poi_points_total", "poi.stays": "locwatch_poi_stays_total",
		"core.visits": "locwatch_core_visits_total", "core.breaches": "locwatch_core_breaches_total",
	} {
		res.set(name, per(func(r rep) float64 { return counter(r, c) }), len(traced))
	}
	res.set("alloc_mb", per(func(r rep) float64 { return float64(r.alloc) / (1 << 20) }), len(traced))
	res.set("cpu_util", per(func(r rep) float64 { return r.cpu.Seconds() / r.wall.Seconds() }), len(traced))

	layers := map[string]float64{}
	var profiled float64
	for _, r := range traced {
		ls, total, err := profileLayers(ctx, r.profile)
		if err != nil {
			return err
		}
		for l, v := range ls {
			layers[l] += v / float64(len(traced))
		}
		profiled += total / float64(len(traced))
	}
	setCPULayers(res, layers, profiled)

	wall := func(rs []rep) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.wall.Seconds()
		}
		return median(xs)
	}
	res.set("trace_overhead_pct", 100*(wall(traced)/wall(plain)-1), len(traced)+len(plain))
	return nil
}

// otherDrivers are the per-artifact metrics of the batch suites other
// than workload's.
func otherDrivers(workload string) []string {
	var names []string
	for suite, ds := range batchSuites {
		if suite != workload {
			for _, d := range ds {
				names = append(names, "experiments."+d.name+"_s")
			}
		}
	}
	return names
}
