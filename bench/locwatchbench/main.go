// Command locwatchbench is locwatch's end-to-end benchmark. It measures
// the system from outside: the batch workloads call the public
// experiments drivers on cold Labs, the stream workloads start the real
// locwatchd binary and load it over loopback HTTP. Every run checks the
// system's output and prints one JSON object as its last line of
// standard output; see README.md for the workloads and metrics.
//
// Usage (bench/run.sh builds both binaries and passes -root and
// -locwatchd):
//
//	locwatchbench -workload <name> [-seed n] [-seconds n] [-trace 0|1]
//	              [-trace-dir dir] [-out file]
//	locwatchbench -compare A.jsonl B.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"locwatch/internal/mobility"
)

// devSeed is the seed the batch artifact digests are pinned for.
const devSeed = 1

type options struct {
	workload  string
	seed      int64
	window    time.Duration // how long a run measures
	trace     bool
	traceDir  string
	root      string
	locwatchd string
	out       string
}

func (o options) buildDir() string { return filepath.Join(o.root, ".bench_build") }

// workloads run one workload and return its metrics, or an error when
// the run broke or the system's output was wrong.
var workloads = map[string]func(context.Context, options) (*result, error){
	"figures":         runBatch,
	"ablations":       runBatch,
	"stream-risk":     func(ctx context.Context, o options) (*result, error) { return runStream(ctx, o, true) },
	"stream-exposure": func(ctx context.Context, o options) (*result, error) { return runStream(ctx, o, false) },
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "locwatchbench: "+format+"\n", args...)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("locwatchbench", flag.ContinueOnError)
	var o options
	var seconds, trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", devSeed, "world seed, and arrival-schedule seed of the stream workloads")
	fs.IntVar(&seconds, "seconds", 15, "measured seconds of the run")
	fs.IntVar(&trace, "trace", 0, "1 for a traced run, which reports the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", "", "where a traced run writes its profiles, spans and layer table (default .bench_build/trace/<workload>-<seed>)")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.locwatchd, "locwatchd", "", "locwatchd binary (stream workloads)")
	fs.StringVar(&o.out, "out", "", "append the run's record to this JSON-lines file")
	fs.BoolVar(&compare, "compare", false, "compare two files of run records (the two arguments)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		logf("%v", err)
		return 1
	}
	if compare {
		if fs.NArg() != 2 {
			logf("-compare takes two record files")
			return 2
		}
		if err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	runWorkload, ok := workloads[o.workload]
	if !ok || !spec.hasWorkload(o.workload) || seconds < 1 || (trace != 0 && trace != 1) {
		logf("usage: -workload <%s> -seed n -seconds n≥1 -trace 0|1", spec.workloadNames())
		return 2
	}
	o.window, o.trace = time.Duration(seconds)*time.Second, trace == 1
	if o.trace {
		if o.traceDir == "" {
			o.traceDir = filepath.Join(o.buildDir(), "trace", fmt.Sprintf("%s-%d", o.workload, o.seed))
		}
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			logf("%v", err)
			return 1
		}
	}
	if err := os.MkdirAll(o.buildDir(), 0o755); err != nil {
		logf("%v", err)
		return 1
	}

	res, err := runWorkload(ctx, o)
	if err == nil {
		err = res.complete(spec.metrics(o.trace), o)
	}
	if err != nil {
		logf("%s: %v", o.workload, err)
		return 1
	}
	if o.trace {
		if err := writeFile(filepath.Join(o.traceDir, "layers.txt"), res.table(spec.metrics(true))); err != nil {
			logf("%v", err)
			return 1
		}
	}
	if err := res.table(spec.metrics(o.trace))(os.Stderr); err != nil {
		logf("%v", err)
		return 1
	}
	line, err := json.Marshal(res.output(spec.metrics(o.trace)))
	if err == nil && o.out != "" {
		err = res.appendRecord(o, spec.metrics(o.trace))
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		logf("%v", err)
		return 1
	}
	return 0
}

// worldSeed maps a seed to the mobility world seed, the way locwatchd
// reads its -seed flag: 0 means the default world.
func worldSeed(seed int64) int64 {
	if seed == 0 {
		return mobility.DefaultConfig().Seed
	}
	return seed
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// workload names, and every metric with its unit and, end to end, its
// regression bound.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *benchSpec) workloadNames() string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return fmt.Sprint(names)
}

// result is one run's measurements.
type result struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int // how many samples each value summarizes
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.values[name], r.samples[name] = v, n
}

// count adds load samples to the attempted and failed totals.
func (r *result) count(ss []sample) {
	for _, s := range ss {
		r.attempted++
		if !s.ok {
			r.failed++
		}
	}
}

// The per-layer metrics of layers a kind of workload never runs read 0,
// as do the per-artifact timings of the other batch suites.
var (
	notInBatch = []string{ // no server, no load generator
		"stream.ingest_p50_ms", "stream.ingest_p99_ms", "stream.risk_p50_ms", "stream.risk_p90_ms",
		"stream.freshness_p50_ms", "stream.freshness_p90_ms", "stream.fixes", "stream.batches",
		"stream.rejected_fixes", "stream.recomputes", "stream.recomputes_per_kfix",
		"stream.recompute_busy_s", "stream.recompute_mean_ms", "stream.queue_depth_max",
		"loadgen.lag_p99_ms", "loadgen.backlog_max", "loadgen.conn_wait_p99_ms",
		"loadgen.service_p99_ms", "loadgen.cpu_s", "stream.sustained_fixes_s",
	}
	notInStream = []string{ // no Lab; the server counts no pipeline events
		"experiments.stage.profiles_at_s", "experiments.stage.historical_profiles_s",
		"experiments.stage.collected_at_s", "experiments.stage.point_totals_s",
		"experiments.cache_hit_ratio", "experiments.pool_busy_s", "experiments.pool_util",
		"mobility.fixes", "mobility.native_passes", "mobility.plan_hit_ratio",
		"poi.points", "poi.stays", "core.visits", "core.breaches",
	}
)

// complete checks that the run measured exactly the metrics the spec
// lists, after zeroing those of layers the workload does not run.
func (r *result) complete(want []metricSpec, o options) error {
	if o.trace {
		absent := notInStream
		if _, isBatch := batchSuites[o.workload]; isBatch {
			absent = notInBatch
		}
		for _, n := range append(absent, otherDrivers(o.workload)...) {
			if _, dup := r.values[n]; dup {
				return fmt.Errorf("metric %s measured but listed as not applicable", n)
			}
			r.set(n, 0, 0)
		}
	}
	var missing []string
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		if _, ok := r.values[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for n := range r.values {
		if !seen[n] {
			missing = append(missing, n+" (not in BENCHMARK.json)")
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics do not match BENCHMARK.json: %v", missing)
	}
	if r.attempted < 1 {
		return errors.New("no operation attempted")
	}
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the line a run prints last. A run whose output check
// fails exits nonzero without printing it, so correct is always true.
type runOutput struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func (r *result) output(want []metricSpec) runOutput {
	out := runOutput{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, m := range want {
		out.Metrics[m.Name] = metricOut{Value: r.values[m.Name], Unit: m.Unit}
	}
	return out
}

// record is one line of a -out file: a run's output plus what it was
// run with and the sample count behind each value.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	runOutput
	Samples map[string]int `json:"samples"`
}

func (r *result) appendRecord(o options, want []metricSpec) error {
	rec := record{Workload: o.workload, Seed: o.seed, runOutput: r.output(want), Samples: r.samples}
	if o.trace {
		rec.Trace = 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// table renders the metrics as aligned text, one per line, with the
// sample count behind each.
func (r *result) table(want []metricSpec) func(io.Writer) error {
	return func(w io.Writer) error {
		for _, m := range want {
			if _, err := fmt.Fprintf(w, "%-40s %14.6g %-8s n=%d\n", m.Name, r.values[m.Name], m.Unit, r.samples[m.Name]); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "attempted %d, failed %d\n", r.attempted, r.failed)
		return err
	}
}

// setCPULayers reports a profile rolled up by layer, and its total.
func setCPULayers(res *result, layers map[string]float64, profiled float64) {
	for _, l := range cpuLayers {
		res.set(l+".cpu_s", layers[l], 1)
	}
	res.set("profile.cpu_s", profiled, 1)
}
