package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"locwatch/internal/mobility"
	"locwatch/internal/obs"
	"locwatch/internal/stream"
)

const (
	streamUsers = 182
	streamDays  = 14

	// rate is R, the offered load of the fixed-rate window in events
	// per second, for both stream workloads: about a quarter of the
	// rate stream-risk saturates at over two connections on the
	// reference machine. At half that rate the two connections queue
	// enough to double the tail from run to run (see README.md).
	rate = 750.0

	// An untraced run starts setupSpawns servers and reports the median
	// set-up time. Each but the last takes the same closed-loop load,
	// about closedEvents seeded events sent back to back, and throughput,
	// CPU per fix and peak RSS are the medians over those servers. The
	// last serves the fixed-rate window.
	setupSpawns  = 5
	closedEvents = 6000
	warmup       = 3 * time.Second

	// The sustained-rate ladder: probes of probeSpan at rates stepping
	// by ladderStep from R until one fails, then bisections between the
	// last pass and the first failure.
	probeSpan    = 2 * time.Second
	ladderStep   = 1.25
	ladderSteps  = 8
	bisections   = 3
	latencyLimit = 25 * time.Millisecond

	// lateLimit marks a traced run invalid: a generator that wakes this
	// late for its own schedule is not applying the load it claims.
	lateLimit = 5 * time.Millisecond
)

// streamRun is one stream workload run: the world both the server and
// the generator simulate, and the config the server scores under.
type streamRun struct {
	o     options
	world *mobility.World
	cfg   stream.Config
	args  []string
	log   *os.File
}

func runStream(ctx context.Context, o options, refs bool) (*result, error) {
	// The server always simulates the development world: its reference
	// profiles set what a recompute costs (1.4 to 2.0 ms across the
	// worlds of seeds 1, 4, 8 and 10), which would make the workload
	// itself change from seed to seed. The seed draws the traffic.
	mc := mobility.DefaultConfig()
	mc.Users, mc.Days, mc.Seed = streamUsers, streamDays, devSeed
	w, err := mobility.New(mc)
	if err != nil {
		return nil, err
	}
	sr := &streamRun{
		o:     o,
		world: w,
		cfg:   stream.Config{Anchor: mc.CityCenter}.WithDefaults(),
		args: []string{"-users", strconv.Itoa(streamUsers), "-days", strconv.Itoa(streamDays),
			"-seed", strconv.FormatInt(mc.Seed, 10)},
	}
	if refs {
		sr.args = append(sr.args, "-refs")
		if sr.cfg.References, err = buildReferences(w, sr.cfg); err != nil {
			return nil, err
		}
	}
	if sr.log, err = os.Create(filepath.Join(o.buildDir(), "locwatchd.log")); err != nil {
		return nil, err
	}
	defer func() { _ = sr.log.Close() }() // a diagnostic log; losing its tail loses no result

	res := newResult()
	var setups []float64
	// withServer runs fn against a freshly started server and stops it.
	withServer := func(fn func(*server) error) error {
		srv, d, err := startServer(ctx, o.locwatchd, sr.args, sr.log)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		err = fn(srv)
		//lint:ignore ctxflow the server is stopped and reaped even when the run is cancelled; stop is bounded by stopTimeout
		return errors.Join(err, srv.stop())
	}

	if o.trace {
		if err := withServer(func(srv *server) error { return sr.ladder(ctx, srv, res) }); err != nil {
			return nil, err
		}
		return res, withServer(func(srv *server) error { return sr.window(ctx, srv, res) })
	}
	var closed []closedRun
	for len(setups) < setupSpawns-1 {
		if err := withServer(func(srv *server) error {
			c, err := sr.closedLoop(ctx, srv, res)
			closed = append(closed, c)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := withServer(func(srv *server) error { return sr.window(ctx, srv, res) }); err != nil {
		return nil, err
	}
	var tput, cpu, rss []float64
	for _, c := range closed {
		tput = append(tput, c.fixes/c.elapsed.Seconds())
		cpu = append(cpu, ms(c.cpu)/(c.fixes/1000))
		rss = append(rss, float64(c.rss)/(1<<20))
	}
	res.set("setup_s", median(setups), len(setups))
	res.set("throughput_fixes_s", median(tput), len(tput))
	res.set("cpu_ms_per_kfix", median(cpu), len(cpu))
	res.set("max_rss_mb", median(rss), len(rss))
	return res, nil
}

// phaseSeed derives the arrival-schedule seed of one load phase.
func phaseSeed(seed int64, phase int) int64 { return seed*1_000_003 + int64(phase) }

// closedRun is what one closed-loop load measured of its server.
type closedRun struct {
	fixes   float64 // accepted
	elapsed time.Duration
	cpu     time.Duration // server CPU over the load
	rss     int64         // server peak RSS, bytes
}

// closedLoop loads a fresh server with a fixed, seeded set of events
// sent back to back on the two connections, so the server's state
// grows the same way on every server of every run of a seed. The
// server is checked by the oracle afterwards.
func (sr *streamRun) closedLoop(ctx context.Context, srv *server, res *result) (closedRun, error) {
	var c closedRun
	g := newGenerator(srv.base, sr.world)
	defer g.close()
	evs := schedule(phaseSeed(sr.o.seed, 1), rate, time.Duration(closedEvents/rate*float64(time.Second)), streamUsers)
	for i := range evs {
		evs[i].due = 0
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return c, err
	}
	ss, err := g.run(ctx, evs, time.Now(), spans{})
	if err != nil {
		return c, err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return c, err
	}
	res.count(ss)
	c.cpu = cpu1 - cpu0
	for _, s := range ss {
		c.elapsed = max(c.elapsed, s.done)
		if s.ok && !s.risk {
			c.fixes += batchFixes
		}
	}
	if c.rss, err = srv.peakRSS(); err != nil {
		return c, err
	}
	return c, g.checkServer(ctx, sr.world, sr.cfg)
}

// ladder finds the sustained rate on a fresh server: the highest
// offered rate whose probe has no failed request, an ingest p99 within
// latencyLimit and no backlog left growing. The server is warmed up at
// R first and checked by the oracle after the last probe.
func (sr *streamRun) ladder(ctx context.Context, srv *server, res *result) error {
	g := newGenerator(srv.base, sr.world)
	defer g.close()
	phase := 0
	probe := func(r float64, span time.Duration) ([]sample, error) {
		phase++
		ss, err := g.run(ctx, schedule(phaseSeed(sr.o.seed, 100+phase), r, span, streamUsers), time.Now(), spans{})
		res.count(ss)
		return ss, err
	}
	if _, err := probe(rate, time.Second); err != nil {
		return err
	}
	best, err := sustainedRate(rate, func(r float64) (bool, error) {
		ss, err := probe(r, probeSpan)
		if err != nil {
			return false, err
		}
		ok, why := passes(ss, r)
		logf("ladder: offered %.0f/s, %d requests: %s", r, len(ss), why)
		return ok, nil
	})
	if err != nil {
		return err
	}
	res.set("stream.sustained_fixes_s", best*batchFixes*(riskEvery-1)/riskEvery, phase)
	return g.checkServer(ctx, sr.world, sr.cfg)
}

// passes judges one ladder probe and says why.
func passes(ss []sample, r float64) (bool, string) {
	var lat []float64
	failed := 0
	for _, s := range ss {
		if !s.ok {
			failed++
		} else if !s.risk {
			lat = append(lat, ms(s.latency()))
		}
	}
	p99 := quantile(lat, 0.99)
	backlog, limit := 0, int(math.Ceil(r*latencyLimit.Seconds()))
	if len(ss) > 0 {
		backlog = backlogAt(ss, ss[len(ss)-1].due)
	}
	why := fmt.Sprintf("ingest p99 %.2f ms, end backlog %d (limit %d), %d failed", p99, backlog, limit, failed)
	return failed == 0 && p99 <= ms(latencyLimit) && backlog <= limit, why
}

// sustainedRate brackets the highest passing rate by stepping from
// start by ladderStep (up while probes pass, down while they fail),
// then narrows the bracket by bisection. It returns the highest rate
// that passed.
func sustainedRate(start float64, probe func(rate float64) (bool, error)) (float64, error) {
	lo, hi := 0.0, 0.0
	ok, err := probe(start)
	if err != nil {
		return 0, err
	}
	if ok {
		lo = start
	} else {
		hi = start
	}
	for i := 0; i < ladderSteps && (lo == 0 || hi == 0); i++ {
		r := lo * ladderStep
		if lo == 0 {
			r = hi / ladderStep
		}
		if ok, err = probe(r); err != nil {
			return 0, err
		}
		if ok {
			lo = r
		} else {
			hi = r
		}
	}
	if lo == 0 {
		return 0, fmt.Errorf("no probed rate down to %.0f/s was sustained", hi)
	}
	if hi == 0 {
		return lo, nil // passed every step: the ladder's top is the answer
	}
	for i := 0; i < bisections; i++ {
		mid := (lo + hi) / 2
		if ok, err = probe(mid); err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// observation is what a traced window saw of the server over its
// traced half.
type observation struct {
	cpu      time.Duration // server CPU
	genCPU   time.Duration // load generator CPU
	vars     [2]varsDoc    // at the start and the end
	alloc    [2]uint64
	queueMax int64
	profile  string
}

// window runs the fixed-rate phase, warmup and then the run's window at
// rate R, and then the oracle. An untraced run measures the whole
// window. A traced run measures its second half with the profile,
// metrics and spans on, and its first half as the untraced reference
// for the overhead.
func (sr *streamRun) window(ctx context.Context, srv *server, res *result) error {
	g := newGenerator(srv.base, sr.world)
	defer g.close()
	span := warmup + sr.o.window
	evs := schedule(phaseSeed(sr.o.seed, 0), rate, span, streamUsers)
	if !sr.o.trace {
		ss, err := g.run(ctx, evs, time.Now(), spans{})
		if err != nil {
			return err
		}
		res.count(ss)
		var lat []float64
		for _, s := range ss {
			if s.due >= warmup && s.ok && !s.risk {
				lat = append(lat, ms(s.latency()))
			}
		}
		res.set("latency_p50_ms", median(lat), len(lat))
		return g.checkServer(ctx, sr.world, sr.cfg)
	}

	// Whole seconds: the server's profile endpoint takes seconds.
	from := span - max((sr.o.window/2).Truncate(time.Second), time.Second)
	tr := spans{tracer: obs.NewRegistry().Tracer(), from: from}
	start := time.Now()
	// The load runs beside the observer; whichever fails first cancels
	// the other.
	type loaded struct {
		ss  []sample
		err error
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lc := make(chan loaded, 1)
	go func() {
		ss, err := g.run(wctx, evs, start, tr)
		if err != nil {
			cancel()
		}
		lc <- loaded{ss, err}
	}()
	ob, err := sr.observe(wctx, srv, start, from, span)
	if err != nil {
		cancel()
	}
	var l loaded
	select {
	case l = <-lc:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := errors.Join(l.err, err); err != nil {
		return err
	}
	res.count(l.ss)
	if err := g.checkServer(ctx, sr.world, sr.cfg); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(sr.o.traceDir, "spans.json"), tr.tracer.WriteJSON); err != nil {
		return err
	}
	return sr.layers(ctx, res, l.ss, from, span, ob)
}

// observe watches the server between offsets from and to of the
// window: its CPU time, its metrics at both ends and its queue-depth
// gauge once a second, its cumulative allocation, and a CPU profile of
// the interval; and the generator's own CPU time.
func (sr *streamRun) observe(ctx context.Context, srv *server, start time.Time, from, to time.Duration) (ob observation, err error) {
	if err := sleepUntil(ctx, start.Add(from)); err != nil {
		return ob, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return ob, err
	}
	gen0 := selfCPU()
	if ob.vars[0], err = srv.vars(ctx); err != nil {
		return ob, err
	}
	if ob.alloc[0], err = srv.totalAlloc(ctx); err != nil {
		return ob, err
	}
	ob.profile = filepath.Join(sr.o.traceDir, "cpu.pprof")
	profc := make(chan error, 1)
	go func(path string) {
		data, err := srv.get(ctx, fmt.Sprintf("/debug/pprof/profile?seconds=%d", int((to-from)/time.Second)))
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		profc <- err
	}(ob.profile)
	defer func() {
		select {
		case perr := <-profc:
			err = errors.Join(err, perr)
		case <-ctx.Done():
			err = errors.Join(err, ctx.Err())
		}
	}()
	for t := from + time.Second; t < to; t += time.Second {
		if err := sleepUntil(ctx, start.Add(t)); err != nil {
			return ob, err
		}
		v, err := srv.vars(ctx)
		if err != nil {
			return ob, err
		}
		ob.queueMax = max(ob.queueMax, v.Gauges["locwatch_stream_shard_queue_depth"])
	}
	if err := sleepUntil(ctx, start.Add(to)); err != nil {
		return ob, err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return ob, err
	}
	ob.cpu, ob.genCPU = cpu1-cpu0, selfCPU()-gen0
	if ob.vars[1], err = srv.vars(ctx); err != nil {
		return ob, err
	}
	ob.alloc[1], err = srv.totalAlloc(ctx)
	return ob, err
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-tm.C:
		return nil
	}
}

// layers fills the per-layer table of a traced stream run from the
// traced half [from, to) of the window.
func (sr *streamRun) layers(ctx context.Context, res *result, ss []sample, from, to time.Duration, ob observation) error {
	var ingest, risk, fresh, ref, lag, wait, service []float64
	for _, s := range ss {
		switch {
		case s.due < warmup || !s.ok:
		case s.due < from:
			if !s.risk {
				ref = append(ref, ms(s.latency()))
			}
		case s.risk:
			risk = append(risk, ms(s.latency()))
			fresh = append(fresh, ms(s.freshness))
		default:
			ingest = append(ingest, ms(s.latency()))
		}
		if s.due >= from {
			if s.connWait == 0 {
				lag = append(lag, ms(s.lag))
			}
			wait = append(wait, ms(s.connWait))
			service = append(service, ms(s.done-s.sent))
		}
	}
	lagTail := tail(lag)
	if lagTail > ms(lateLimit) {
		return fmt.Errorf("generator lag p99 %.2f ms exceeds %v: the traced run is invalid", lagTail, lateLimit)
	}
	// One event in riskEvery is a risk query: a few hundred per traced
	// half, enough for a p90 with ten samples beyond it, not a p99.
	res.set("stream.ingest_p50_ms", median(ingest), len(ingest))
	res.set("stream.ingest_p99_ms", tail(ingest), len(ingest))
	res.set("stream.risk_p50_ms", median(risk), len(risk))
	res.set("stream.risk_p90_ms", quantile(risk, 0.9), len(risk))
	res.set("stream.freshness_p50_ms", median(fresh), len(fresh))
	res.set("stream.freshness_p90_ms", quantile(fresh, 0.9), len(fresh))
	res.set("loadgen.lag_p99_ms", lagTail, len(lag))
	res.set("loadgen.conn_wait_p99_ms", tail(wait), len(wait))
	res.set("loadgen.service_p99_ms", tail(service), len(service))
	var traced []sample
	for _, s := range ss {
		if s.due >= from {
			traced = append(traced, s)
		}
	}
	res.set("loadgen.backlog_max", float64(maxBacklog(traced)), len(traced))
	res.set("loadgen.cpu_s", ob.genCPU.Seconds(), 1)
	res.set("trace_overhead_pct", 100*(median(ingest)/median(ref)-1), len(ingest)+len(ref))

	secs := (to - from).Seconds()
	delta := func(name string) float64 {
		return float64(ob.vars[1].Counters[name] - ob.vars[0].Counters[name])
	}
	fixes, recomputes := delta("locwatch_stream_fixes_total"), delta("locwatch_stream_recomputes_total")
	busy := ob.vars[1].Histograms["locwatch_stream_recompute_seconds"].Sum - ob.vars[0].Histograms["locwatch_stream_recompute_seconds"].Sum
	res.set("stream.fixes", fixes, 1)
	res.set("stream.batches", delta("locwatch_stream_batches_total"), 1)
	res.set("stream.rejected_fixes", delta("locwatch_stream_rejected_fixes_total"), 1)
	res.set("stream.recomputes", recomputes, 1)
	res.set("stream.recomputes_per_kfix", recomputes/math.Max(fixes/1000, 1e-9), 1)
	res.set("stream.recompute_busy_s", busy, 1)
	res.set("stream.recompute_mean_ms", 1000*busy/math.Max(recomputes, 1), 1)
	res.set("stream.queue_depth_max", float64(ob.queueMax), int(secs))
	res.set("cpu_util", ob.cpu.Seconds()/secs, 1)
	res.set("alloc_mb", float64(ob.alloc[1]-ob.alloc[0])/(1<<20), 1)

	layers, profiled, err := profileLayers(ctx, ob.profile)
	if err != nil {
		return err
	}
	setCPULayers(res, layers, profiled)
	return nil
}
