package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/obs"
	"locwatch/internal/privlog"
	"locwatch/internal/trace"
)

// checkPin compares the SHA-256 of a pipeline's output with a digest
// recorded on amd64, so a change that alters every run the same way
// still fails. Other targets may fuse multiply-adds and change float
// bits, so there the pin is skipped with a message.
func checkPin(t *testing.T, name, out, want string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Logf("%s: output pin skipped on %s: pins are recorded on amd64", name, runtime.GOARCH)
		return
	}
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: output digest %s, pinned %s", name, got, want)
	}
}

// figureOutputs runs the full figure pipeline on one lab and returns
// every result as canonical JSON plus its rendered table, in a fixed
// order. The determinism test compares this string byte for byte
// between an uninstrumented and a fully instrumented lab.
func figureOutputs(t *testing.T, lab *Lab) string {
	t.Helper()
	var out string
	add := func(name string, r interface{ Render() string }, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := json.MarshalIndent(r, "", " ")
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		out += fmt.Sprintf("=== %s ===\n%s\n%s\n", name, raw, r.Render())
	}

	report, err := MarketStudy(lab.Config())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Figure2(lab)
	add("fig2", f2, err)
	f3, err := Figure3(lab, report)
	add("fig3", f3, err)
	f4, err := Figure4(lab)
	add("fig4", f4, err)
	f5, err := Figure5(lab)
	add("fig5", f5, err)
	cb, err := Combined(lab)
	add("combined", cb, err)
	return out
}

// TestObsDeterminism is the observe-only invariant check (DESIGN.md
// §8): the Quick-config figure pipeline must produce byte-identical
// results with instrumentation fully enabled and fully disabled.
func TestObsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-config figure pipeline is too heavy for -short")
	}

	off := mustLab(t, Quick())
	defer off.Close()
	plainOut := figureOutputs(t, off)
	checkPin(t, "quick figures", plainOut, "3e691ff734343ae002115fecdf260b2a2720c47e73d1f9837cb9a113a409ca31")

	cfg := Quick()
	reg := obs.NewRegistry()
	cfg.Obs = reg
	on := mustLab(t, cfg)
	instrumentedOut := figureOutputs(t, on)
	// A second Figure4 replays entirely from the lab's memoized
	// detections — it exercises the cache-hit counters for free.
	if _, err := Figure4(on); err != nil {
		t.Fatal(err)
	}
	on.Close()

	if plainOut != instrumentedOut {
		a, b := []byte(plainOut), []byte(instrumentedOut)
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("instrumentation changed the output at byte %d:\nobs off: %q\nobs on:  %q",
			i, plainOut[lo:min(i+80, len(plainOut))], instrumentedOut[lo:min(i+80, len(instrumentedOut))])
	}

	// The run really was instrumented: every layer's counters moved.
	for _, name := range []string{
		"locwatch_mobility_plan_builds_total",
		"locwatch_mobility_plan_cache_hits_total",
		"locwatch_mobility_fixes_total",
		"locwatch_poi_points_total",
		"locwatch_poi_stays_total",
		"locwatch_core_points_total",
		"locwatch_core_visits_total",
		"locwatch_core_breaches_total",
		"locwatch_lab_profiles_cache_misses_total",
		"locwatch_lab_detect_cache_misses_total",
		"locwatch_lab_detect_cache_hits_total",
	} {
		if v := reg.Counter(name).Value(); v == 0 {
			t.Errorf("counter %s still zero after an instrumented run", name)
		}
	}
	// Builders and extractors add their point counts once per batch of
	// fixes; the totals must still be exact once the run is done. These
	// are the totals of the same run with one atomic add per fix.
	for name, want := range map[string]uint64{
		"locwatch_mobility_fixes_total": 14358313,
		"locwatch_poi_points_total":     8989624,
		"locwatch_poi_stays_total":      4720,
		"locwatch_core_points_total":    8989624,
		"locwatch_core_visits_total":    4720,
		"locwatch_core_breaches_total":  100,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("counter %s = %d after the run, want %d", name, got, want)
		}
	}
	if n := reg.Histogram("locwatch_lab_pool_task_seconds", obs.DefLatencyBuckets).Count(); n == 0 {
		t.Error("task latency histogram empty after an instrumented run")
	}

	spans := reg.Tracer().Spans()
	var root *obs.SpanRecord
	children := 0
	for i := range spans {
		if spans[i].Name == "lab" {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatal("no lab root span recorded after Close")
	}
	for _, s := range spans {
		if s.Parent == root.ID {
			children++
		}
	}
	if children == 0 {
		t.Error("lab root span has no per-stage children")
	}

	// privacyeval prints the rendered figures to stdout, serves the
	// registry on -metrics-addr and writes the span record with
	// -trace-out; its stderr carries only timings. None of them may
	// carry a venue position.
	var venues []geo.LatLon
	for _, v := range on.World().Venues() {
		venues = append(venues, v.Pos)
	}
	for name, write := range map[string]func(io.Writer) error{
		"/metrics":    reg.WriteProm,
		"/debug/vars": reg.WriteJSON,
		"-trace-out":  reg.Tracer().WriteJSON,
		"stdout": func(w io.Writer) error {
			_, err := io.WriteString(w, instrumentedOut)
			return err
		},
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		for _, hit := range privlog.FindLeaks(buf.Bytes(), venues) {
			t.Errorf("%s leaks a venue position: %s", name, hit)
		}
	}
}

// TestLabPoolGaugeBalance checks that a fan-out records one task
// latency per user.
func TestLabPoolGaugeBalance(t *testing.T) {
	cfg := tinyConfig()
	reg := obs.NewRegistry()
	cfg.Obs = reg
	l := mustLab(t, cfg)
	defer l.Close()
	if err := l.forEachUser(func(id int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := reg.Histogram("locwatch_lab_pool_task_seconds", obs.DefLatencyBuckets).Count(); n != uint64(l.World().NumUsers()) {
		t.Fatalf("task histogram count %d, want %d", n, l.World().NumUsers())
	}
}

// onePassFixes returns the fixes of one replay of every user of
// tinyConfig's world at the given interval (0 for native rate),
// counted on a lab without metrics.
func onePassFixes(t *testing.T, interval time.Duration) uint64 {
	t.Helper()
	plain := mustLab(t, tinyConfig())
	defer plain.Close()
	var n uint64
	for u := range plain.World().NumUsers() {
		src, err := plain.World().Trace(u, interval)
		if err != nil {
			t.Fatal(err)
		}
		c, err := trace.Count(src)
		if err != nil {
			t.Fatal(err)
		}
		n += uint64(c)
	}
	if n == 0 {
		t.Fatal("the tiny world generated no fixes")
	}
	return n
}

// sweepPassFixes returns the fixes of one native-rate pass plus one
// pass at each nonzero interval of tinyConfig's sweep.
func sweepPassFixes(t *testing.T) uint64 {
	t.Helper()
	var n uint64
	for _, iv := range tinyConfig().Intervals {
		n += onePassFixes(t, iv)
	}
	return n
}

// instrumentedLab returns a tinyConfig lab reporting to a fresh
// registry, and that registry's mobility fix counter.
func instrumentedLab(t *testing.T) (*Lab, *obs.Registry, *obs.Counter) {
	t.Helper()
	cfg := tinyConfig()
	reg := obs.NewRegistry()
	cfg.Obs = reg
	l := mustLab(t, cfg)
	t.Cleanup(l.Close)
	return l, reg, reg.Counter("locwatch_mobility_fixes_total")
}

// TestFigure2ReplaysOnce pins Figure2 to one native-rate pass over
// every user's trace: the lab's mobility fix counter must equal the
// fixes of one replay, counted on a second lab without metrics. Fix
// counts are deterministic, so a driver that goes back to one replay
// per parameter set fails here at six times the count.
func TestFigure2ReplaysOnce(t *testing.T) {
	l, _, fixes := instrumentedLab(t)
	if _, err := Figure2(l); err != nil {
		t.Fatal(err)
	}
	onePass := onePassFixes(t, 0)
	if got := fixes.Value(); got != onePass {
		t.Errorf("Figure2 generated %d fixes, one native pass is %d (%.2f passes)",
			got, onePass, float64(got)/float64(onePass))
	}
}

// TestAblationMitigationReplaysOnce pins the defense sweep to one
// native-rate pass over every user's trace, on top of the ground-truth
// profiles it reads: a driver that replays once per defense fails here
// at ten times the count.
func TestAblationMitigationReplaysOnce(t *testing.T) {
	l, _, fixes := instrumentedLab(t)
	if _, err := l.Profiles(); err != nil {
		t.Fatal(err)
	}
	before := fixes.Value()
	if _, err := AblationMitigation(l); err != nil {
		t.Fatal(err)
	}
	onePass := onePassFixes(t, 0)
	if got := fixes.Value() - before; got != onePass {
		t.Errorf("AblationMitigation generated %d fixes, one native pass is %d (%.2f passes)",
			got, onePass, float64(got)/float64(onePass))
	}
}

// TestFigure4NativeReplayOnce pins Figure 4 to one replay per swept
// interval: 4(a) and 4(b) share one native-rate replay, and 4(b)'s
// denominators come from that replay, not from a pass of their own.
// With the ground-truth profiles and every point total built first,
// Figure4 may add at most one native pass plus one pass per nonzero
// swept interval; its replays stop once every pattern has breached, so
// the count is a bound, not an equality.
func TestFigure4NativeReplayOnce(t *testing.T) {
	l, _, fixes := instrumentedLab(t)
	if _, err := l.Profiles(); err != nil {
		t.Fatal(err)
	}
	for _, iv := range l.cfg.Intervals {
		if _, err := l.pointTotals(iv); err != nil {
			t.Fatal(err)
		}
	}
	before := fixes.Value()
	if _, err := Figure4(l); err != nil {
		t.Fatal(err)
	}
	bound := sweepPassFixes(t)
	if got := fixes.Value() - before; got > bound {
		t.Errorf("Figure4 generated %d fixes, one pass per swept interval is %d (%.2f×)",
			got, bound, float64(got)/float64(bound))
	}
}

// TestFigure5ReplaysNativeOnce pins Figure 5 to one replay per swept
// interval on a fresh lab: the adversary's history and the native-rate
// collection split one native replay at the cut, and each nonzero
// interval's collection is one full pass. Asked for alone, the history
// stops generating at the cut.
func TestFigure5ReplaysNativeOnce(t *testing.T) {
	l, _, fixes := instrumentedLab(t)
	if _, err := Figure5(l); err != nil {
		t.Fatal(err)
	}
	want := sweepPassFixes(t)
	if got := fixes.Value(); got != want {
		t.Errorf("Figure5 generated %d fixes, one pass per swept interval is %d (%.2f×)",
			got, want, float64(got)/float64(want))
	}

	h, _, histFixes := instrumentedLab(t)
	if _, err := h.HistoricalProfiles(); err != nil {
		t.Fatal(err)
	}
	if got, full := histFixes.Value(), onePassFixes(t, 0); got >= full {
		t.Errorf("HistoricalProfiles alone generated %d fixes, a full native pass is %d", got, full)
	}
}

// TestCombinedReplaysNothing pins Combined to a fold over Figure 4's
// memoized sweeps: after Figure4 it generates no fix and builds no
// detection sweep.
func TestCombinedReplaysNothing(t *testing.T) {
	l, reg, fixes := instrumentedLab(t)
	if _, err := Figure4(l); err != nil {
		t.Fatal(err)
	}
	misses := reg.Counter("locwatch_lab_detect_cache_misses_total")
	fixesBefore, missesBefore := fixes.Value(), misses.Value()
	if _, err := Combined(l); err != nil {
		t.Fatal(err)
	}
	if got := fixes.Value() - fixesBefore; got != 0 {
		t.Errorf("Combined generated %d fixes after Figure4", got)
	}
	if got := misses.Value() - missesBefore; got != 0 {
		t.Errorf("Combined missed the detection cache %d times after Figure4", got)
	}
}
