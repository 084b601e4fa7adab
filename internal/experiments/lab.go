// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus the ablations DESIGN.md calls out. Each
// driver returns a typed result with a Render method that prints the
// same rows or series the paper reports.
//
// Heavy inputs (the simulated world, per-user ground-truth profiles,
// the adversary's historical profiles) are built once per Lab and
// shared across experiments; per-user work is fanned out over at most
// Config.Workers goroutines.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/mobility"
	"locwatch/internal/obs"
	"locwatch/internal/trace"
)

// Config parameterizes a Lab.
type Config struct {
	Mobility mobility.Config
	Core     core.Params

	// MarketSeed seeds the synthetic app market for §III / Table I /
	// Figure 1.
	MarketSeed int64

	// Intervals is the background-access sweep used by Figures 3–5.
	// Zero means the trace's native rate (the paper's "one access per
	// second" end of the axis).
	Intervals []time.Duration

	// SensitiveMaxVisits is the PoI_sensitive threshold (paper: 3).
	SensitiveMaxVisits int

	// SplitFraction is the share of the simulated period whose data
	// forms the adversary's historical profiles in Figure 5; the
	// remainder is what apps collect. (The His_bin detector of Figure 4
	// is user-side and compares against the full-period profile.)
	SplitFraction float64

	// Workers bounds experiment concurrency; 0 means GOMAXPROCS.
	Workers int

	// Obs, when non-nil, receives the lab's metrics and spans: cache
	// hit/miss counters, per-user task latency and per-stage spans,
	// plus the mobility/core/poi counters of every layer the lab
	// drives. Nil disables all instrumentation at the
	// cost of one nil check per site. Instrumentation is observe-only:
	// enabling it never changes any experiment output (DESIGN.md §8).
	Obs *obs.Registry
}

// Default returns the paper-scale configuration: 182 users, 14 days,
// the full interval sweep.
func Default() Config {
	return Config{
		Mobility:   mobility.DefaultConfig(),
		Core:       core.DefaultParams(),
		MarketSeed: 1,
		Intervals: []time.Duration{
			0, 5 * time.Second, 10 * time.Second, 30 * time.Second,
			time.Minute, 5 * time.Minute, 10 * time.Minute,
			30 * time.Minute, 2 * time.Hour,
		},
		SensitiveMaxVisits: 3,
		SplitFraction:      2.0 / 3.0,
	}
}

// Quick returns a reduced configuration for benchmarks and smoke runs:
// 24 users, 8 days, a four-point interval sweep. Shapes are preserved;
// absolute counts shrink with the population.
func Quick() Config {
	cfg := Default()
	cfg.Mobility.Users = 24
	cfg.Mobility.Days = 8
	cfg.Intervals = []time.Duration{0, time.Minute, 10 * time.Minute, 2 * time.Hour}
	return cfg
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) validate() error {
	if c.SplitFraction <= 0 || c.SplitFraction >= 1 {
		return fmt.Errorf("experiments: split fraction %v outside (0, 1)", c.SplitFraction)
	}
	if c.SensitiveMaxVisits <= 0 {
		return errors.New("experiments: sensitive-visit threshold must be positive")
	}
	if len(c.Intervals) == 0 {
		return errors.New("experiments: empty interval sweep")
	}
	return nil
}

// Lab owns the shared experiment inputs.
type Lab struct {
	cfg   Config
	world *mobility.World

	// Observe-only instruments (nil when disabled, DESIGN.md §8).
	taskSeconds *obs.Histogram // per-user task latency of forEachUser
	root        *obs.Span      // parent of the per-stage spans

	profiles   [len(windowCaches)]*cached[time.Duration, []*core.Profile] // per window, keyed by access interval
	totals     *cached[time.Duration, []int]
	detections *cached[detectKey, []DetectionOutcome]
}

// NewLab builds the simulated world; traces are generated lazily.
func NewLab(cfg Config) (*Lab, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w, err := mobility.New(cfg.Mobility)
	if err != nil {
		return nil, err
	}
	r := cfg.Obs
	if r != nil {
		w.SetMetrics(mobilityMetrics(r))
		cfg.Core.Obs = coreMetrics(r)
		cfg.Core.Extractor.Obs = poiMetrics(r)
	}
	l := &Lab{
		cfg:         cfg,
		world:       w,
		taskSeconds: r.Histogram("locwatch_lab_pool_task_seconds", obs.DefLatencyBuckets),
		root:        r.Tracer().Start("lab"),
		totals:      newCached[time.Duration, []int](r, "totals"),
		detections:  newCached[detectKey, []DetectionOutcome](r, "detect"),
	}
	for win, name := range windowCaches {
		l.profiles[win] = newCached[time.Duration, []*core.Profile](r, name)
	}
	return l, nil
}

// Close ends the lab's root span, so a tracer records it. Safe to call
// more than once.
func (l *Lab) Close() { l.root.End() }

// Config returns the lab configuration.
func (l *Lab) Config() Config { return l.cfg }

// World returns the simulated city.
func (l *Lab) World() *mobility.World { return l.world }

// splitCut returns the instant separating the adversary's history from
// the collection window.
func (l *Lab) splitCut() time.Time {
	days := float64(l.cfg.Mobility.Days) * l.cfg.SplitFraction
	return l.cfg.Mobility.Start.Add(time.Duration(days * 24 * float64(time.Hour)))
}

// forEachUser runs fn for every user on min(Workers, users) goroutines
// that claim user ids from a shared counter, and returns the joined
// errors once all have finished. Completion order varies, so fn must
// write its results to per-user slots.
func (l *Lab) forEachUser(fn func(id int) error) error {
	n := l.world.NumUsers()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(l.cfg.workers(), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int(next.Add(1)) - 1; id < n; id = int(next.Add(1)) - 1 {
				t := l.taskSeconds.Timer()
				errs[id] = fn(id)
				t.Stop()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// cached memoizes one kind of lab input by key. Concurrent first calls
// for a key may both build; the first result stored wins, so every
// call returns the same value.
type cached[K comparable, V any] struct {
	hits, misses *obs.Counter

	mu sync.Mutex
	m  map[K]V
}

// newCached counts lookups on r as
// locwatch_lab_<name>_cache_{hits,misses}_total.
func newCached[K comparable, V any](r *obs.Registry, name string) *cached[K, V] {
	return &cached[K, V]{
		hits:   r.Counter("locwatch_lab_" + name + "_cache_hits_total"),
		misses: r.Counter("locwatch_lab_" + name + "_cache_misses_total"),
		m:      make(map[K]V),
	}
}

// get returns the value stored for key, building and storing it on
// first use.
func (c *cached[K, V]) get(key K, build func() (V, error)) (V, error) {
	if v, ok := c.lookup(key); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		var zero V
		return zero, err
	}
	return c.put(key, v), nil
}

// lookup returns the value stored for key, counting a hit or a miss.
// A caller that misses builds the value and stores it with put.
func (c *cached[K, V]) lookup(key K) (V, bool) {
	c.mu.Lock()
	v, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return v, ok
}

// put stores v for key unless a value is stored already, and returns
// the stored value: the first result stored wins.
func (c *cached[K, V]) put(key K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[key]; ok {
		return prev
	}
	c.m[key] = v
	return v
}

// window is the stretch of each user's trace a cached profile covers.
type window int

const (
	fullPeriod  window = iota // the whole simulated period
	beforeSplit               // the adversary's history (Figure 5)
	afterSplit                // what apps collect after the history split
)

// The cache counter and stage span names of each window.
var (
	windowCaches = [...]string{fullPeriod: "profiles", beforeSplit: "hist", afterSplit: "collected"}
	windowSpans  = [...]string{fullPeriod: "profiles_at", beforeSplit: "historical_profiles", afterSplit: "collected_at"}
)

// Profiles returns the per-user ground-truth profiles (full period,
// native rate), building them on first use.
func (l *Lab) Profiles() ([]*core.Profile, error) {
	return l.ProfilesAt(0)
}

// ProfilesAt returns the per-user full-period profiles as observed at
// the given access interval, building and caching them on first use.
// Interval 0 is the ground truth Profiles returns; the other sweep
// points are what Figures 3–4 repeatedly consume.
func (l *Lab) ProfilesAt(interval time.Duration) ([]*core.Profile, error) {
	ps, err := l.profilesAt(interval, fullPeriod)
	return ps[fullPeriod], err
}

// HistoricalProfiles returns the adversary's training-window profiles.
func (l *Lab) HistoricalProfiles() ([]*core.Profile, error) {
	ps, err := l.profilesAt(0, beforeSplit)
	return ps[beforeSplit], err
}

// collectedAt returns the per-user profiles built from what an app
// collecting at the given interval obtains after the history split —
// the adversary's observation in Figure 5.
func (l *Lab) collectedAt(interval time.Duration) ([]*core.Profile, error) {
	ps, err := l.profilesAt(interval, afterSplit)
	return ps[afterSplit], err
}

// profilesAt returns every user's profiles over each of windows of the
// trace sampled at interval, indexed by window, cached per window and
// interval. The windows not cached yet are built together, from one
// replay of each user's trace.
func (l *Lab) profilesAt(interval time.Duration, windows ...window) ([len(windowCaches)][]*core.Profile, error) {
	var out [len(windowCaches)][]*core.Profile
	var missing []window
	for _, w := range windows {
		if ps, ok := l.profiles[w].lookup(interval); ok {
			out[w] = ps
		} else {
			missing = append(missing, w)
		}
	}
	if len(missing) == 0 {
		return out, nil
	}
	built, err := l.buildWindows(interval, missing)
	if err != nil {
		return out, err
	}
	for i, w := range missing {
		out[w] = l.profiles[w].put(interval, built[i])
	}
	return out, nil
}

// buildWindows builds every user's profile over each of windows from
// one replay of the user's trace at interval. World traces are
// time-ordered, so each window's builder sees exactly the fixes
// trace.NewTimeWindow would give it, in order, and is finalized as
// core.BuildProfile finalizes. A replay that builds nothing past the
// cut stops at the first fix past it, as TimeWindow does.
func (l *Lab) buildWindows(interval time.Duration, windows []window) ([][]*core.Profile, error) {
	// One replay builds every window asked for; its span carries the
	// first one's stage name.
	w := windows[0]
	sp := l.root.Child(windowSpans[w])
	sp.SetAttr("interval", intervalLabel(interval))
	if len(windows) > 1 {
		names := make([]string, len(windows))
		for i, w := range windows {
			names[i] = windowSpans[w]
		}
		sp.SetAttr("windows", strings.Join(names, ","))
	}
	defer sp.End()

	cut := l.splitCut()
	stopAtCut := !slices.ContainsFunc(windows, func(w window) bool { return w != beforeSplit })
	out := make([][]*core.Profile, len(windows))
	for i := range out {
		out[i] = make([]*core.Profile, l.world.NumUsers())
	}
	err := l.forEachUser(func(id int) error {
		builders := make([]*core.ProfileBuilder, len(windows))
		for i := range builders {
			b, err := core.NewProfileBuilder(l.cfg.Mobility.CityCenter, l.cfg.Core)
			if err != nil {
				return fmt.Errorf("user %d: %w", id, err)
			}
			builders[i] = b
		}
		src, err := l.world.Trace(id, interval)
		if err != nil {
			return err
		}
		for {
			pt, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return fmt.Errorf("user %d: %w", id, err)
			}
			past := !pt.T.Before(cut)
			if past && stopAtCut {
				break
			}
			for i, w := range windows {
				if (w == beforeSplit && past) || (w == afterSplit && !past) {
					continue
				}
				if err := builders[i].Feed(pt); err != nil {
					return fmt.Errorf("user %d: %w", id, err)
				}
			}
		}
		for i, b := range builders {
			out[i][id] = b.Profile()
			b.Release()
		}
		return nil
	})
	return out, err
}

// pointTotals returns, per user, the number of fixes an app collecting
// at the given interval would obtain over the full period. Counting
// uses the timestamps-only stream: emission timing never depends on
// geometry or noise, so the counts match Trace exactly without paying
// for interpolation. Cached.
func (l *Lab) pointTotals(interval time.Duration) ([]int, error) {
	return l.totals.get(interval, func() ([]int, error) {
		sp := l.root.Child("point_totals")
		sp.SetAttr("interval", intervalLabel(interval))
		defer sp.End()

		totals := make([]int, l.world.NumUsers())
		err := l.forEachUser(func(id int) error {
			src, err := l.world.TraceTimes(id, interval)
			if err != nil {
				return err
			}
			totals[id], err = trace.Count(src)
			return err
		})
		return totals, err
	})
}

// intervalLabel renders an interval for table output; 0 is the native
// GeoLife-style 1–5 s rate.
func intervalLabel(iv time.Duration) string {
	if iv == 0 {
		return "native(1-5s)"
	}
	return iv.String()
}
