// Package stream is locwatch's streaming privacy-risk engine: the
// batch experiments.Lab pipeline turned into a long-running service.
// Location fixes for many users arrive as a stream (HTTP ingest or the
// replay driver), per-user profile state lives in sharded single-
// goroutine maps with bounded queues, risk recomputation is debounced
// by an event scheduler, and live PoI_total / PoI_sensitive / His_bin
// / Deg_anonymity snapshots are served per user.
//
// The package is built around one correctness contract, proven by the
// differential harness in internal/stream/difftest: replaying a trace
// through the engine and finalizing yields profiles and risk metrics
// byte-identical to a batch core.BuildProfile run over the same
// points — for any shard count, any ingest batch sizing, any
// interleaving across users, and any mid-stream eviction schedule.
// The invariants that make this hold:
//
//   - per-user ordering: a user's fixes are fed in arrival order. Each
//     user maps to exactly one shard, each shard is one goroutine
//     consuming a FIFO queue, so arrival order is feed order.
//   - non-destructive snapshots: mid-stream risk uses
//     core.ProfileBuilder.Peek, which never flushes the extractor;
//     only Finalize (end of stream, the batch equivalent of the final
//     Flush) does.
//   - non-destructive eviction: Evict parks the builder
//     (poi.Extractor.Park), shrinking retained buffers without losing
//     a buffered point.
//
// Backpressure is the queue bound: Ingest blocks while the target
// shard's queue is full, pushing the stall back onto the producer
// until the queue drains or the producer's ctx ends.
package stream

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/geo"
	"locwatch/internal/obs"
	"locwatch/internal/trace"
)

// Package-level error conditions the HTTP layer maps to status codes.
var (
	// ErrClosed is returned by every method after Close.
	ErrClosed = errors.New("stream: engine closed")
	// ErrUnknownUser is returned for risk queries about users that
	// never ingested a fix.
	ErrUnknownUser = errors.New("stream: unknown user")
	// ErrBatchTooLarge is returned when one Ingest call exceeds
	// Config.MaxBatch fixes.
	ErrBatchTooLarge = errors.New("stream: ingest batch too large")
)

// Config parameterizes an Engine.
type Config struct {
	// Anchor is the projection anchor all profiles share; it must
	// match the anchor of any reference profiles.
	Anchor geo.LatLon
	// Core parameterizes profile construction and the His_bin test.
	Core core.Params

	// Shards is the number of independent state shards (and shard
	// goroutines). Users hash onto shards; shard count never changes
	// results, only concurrency. Defaults to 8.
	Shards int
	// QueueDepth bounds each shard's pending-batch queue; a full queue
	// blocks Ingest (backpressure). Defaults to 64.
	QueueDepth int
	// MaxBatch bounds the fixes accepted in one Ingest call (the HTTP
	// layer answers 413 beyond it). Defaults to 4096.
	MaxBatch int
	// RecomputeEvery is the debounce threshold of the risk scheduler:
	// a user's risk snapshot is recomputed after this many new fixes
	// (plus on SyncAll, Finalize, and first query). Defaults to 512.
	RecomputeEvery int
	// FlushInterval, when positive, starts a wall-clock ticker that
	// periodically recomputes every dirty user's snapshot, bounding
	// staleness for users whose streams go quiet below the debounce
	// threshold. Zero (the default) disables the ticker; timing only
	// affects snapshot freshness, never final values.
	FlushInterval time.Duration
	// SensitiveMaxVisits is the PoI_sensitive visit threshold
	// (paper: 3). Defaults to 3.
	SensitiveMaxVisits int
	// Pattern selects the histogram pattern for His_bin and
	// identification. Defaults to PatternRegion (the zero value).
	Pattern core.Pattern

	// References optionally holds the profiles risk is scored
	// against; nil serves exposure metrics only (His_bin 0, maximal
	// anonymity).
	References *References

	// Obs, when non-nil, receives the engine's metrics and spans.
	// Observe-only, as everywhere in this repository (DESIGN.md §8).
	Obs *obs.Registry
}

// WithDefaults returns c with every unset field at its documented
// default — the exact config New runs under. The difftest batch side
// applies it too, so both sides of a comparison score identically.
func (c Config) WithDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.RecomputeEvery <= 0 {
		c.RecomputeEvery = 512
	}
	if c.SensitiveMaxVisits <= 0 {
		c.SensitiveMaxVisits = 3
	}
	return c
}

// Engine is the streaming privacy-risk service core. Construct with
// New, feed with Ingest (or the replay driver), query with Risk, and
// stop with Close.
type Engine struct {
	cfg    Config
	shards []*shard
	obsm   engineMetrics

	batchPool sync.Pool // *[]trace.Point ingest buffers

	// mu serializes submissions against Close: submitters hold the
	// read half across their channel send, Close takes the write half
	// before closing the shard queues, so a send can never race a
	// close. Shard goroutines consume until close and never take mu.
	mu     sync.RWMutex
	closed bool

	tickStop chan struct{}
	tickDone chan struct{}
}

// New validates cfg and starts the shard goroutines (and the flush
// ticker when configured). Call Close when done.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.WithDefaults()
	// Probe the profile params once so per-user state creation inside
	// the shards cannot fail later.
	probe, err := core.NewProfileBuilder(cfg.Anchor, cfg.Core)
	if err != nil {
		return nil, fmt.Errorf("stream: config: %w", err)
	}
	probe.Release()
	if cfg.References != nil && cfg.References.pattern != cfg.Pattern {
		return nil, fmt.Errorf("stream: references built for %v, engine runs %v", cfg.References.pattern, cfg.Pattern)
	}
	e := &Engine{
		cfg:  cfg,
		obsm: newEngineMetrics(cfg.Obs),
		batchPool: sync.Pool{New: func() any {
			buf := make([]trace.Point, 0, 256)
			return &buf
		}},
	}
	// Written once here, before the shard goroutines below are spawned;
	// never reassigned.
	e.obsm.root = e.obsm.tracer.Start("stream_engine")
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i)
	}
	if cfg.FlushInterval > 0 {
		e.tickStop = make(chan struct{})
		e.tickDone = make(chan struct{})
		go e.flushLoop()
	}
	return e, nil
}

// flushLoop periodically recomputes dirty snapshots. Pure freshness:
// the values a recompute produces do not depend on when it runs.
func (e *Engine) flushLoop() {
	defer close(e.tickDone)
	t := time.NewTicker(e.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Background context: a full queue just delays the tick.
			if err := e.SyncAll(context.Background()); err != nil {
				return // engine closing
			}
		case <-e.tickStop:
			return
		}
	}
}

// shardFor maps a user id onto its owning shard. FNV keeps the map
// deterministic across processes so difftest shard sweeps are
// reproducible.
func (e *Engine) shardFor(userID string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(userID)) // fnv.Write never errors
	return e.shards[h.Sum32()%uint32(len(e.shards))]
}

// Ingest feeds a batch of fixes for one user. Fixes must be in
// non-decreasing time order per user across all batches; violations
// poison the user (recorded, surfaced on query) rather than the
// stream. The fix slice is copied — callers may reuse it immediately.
// Ingest blocks while the target shard's queue is full (backpressure)
// and aborts with ctx's error if the caller gives up.
func (e *Engine) Ingest(ctx context.Context, userID string, fixes []trace.Point) error {
	if userID == "" {
		return errors.New("stream: empty user id")
	}
	if len(fixes) == 0 {
		return nil
	}
	if len(fixes) > e.cfg.MaxBatch {
		return fmt.Errorf("%w: %d fixes, max %d", ErrBatchTooLarge, len(fixes), e.cfg.MaxBatch)
	}
	buf := e.batchPool.Get().(*[]trace.Point)
	*buf = append((*buf)[:0], fixes...)

	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.batchPool.Put(buf)
		return ErrClosed
	}
	sh := e.shardFor(userID)
	err := sh.submit(ctx, func() {
		sh.ingest(userID, *buf)
		*buf = (*buf)[:0]
		e.batchPool.Put(buf)
	})
	if err != nil {
		e.batchPool.Put(buf)
		return err
	}
	e.obsm.batches.Inc()
	e.obsm.batchFixes.Observe(float64(len(fixes)))
	return nil
}

// Risk returns the user's current risk snapshot. The snapshot is the
// debounced one the scheduler last computed; StaleFixes reports how
// many ingested fixes it does not cover yet. A user queried before
// any snapshot exists gets one computed on the spot.
func (e *Engine) Risk(ctx context.Context, userID string) (Risk, error) {
	type reply struct {
		risk Risk
		err  error
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return Risk{}, ErrClosed
	}
	sh := e.shardFor(userID)
	ch := make(chan reply, 1)
	err := sh.submit(ctx, func() {
		r, err := sh.risk(userID)
		ch <- reply{r, err}
	})
	if err != nil {
		return Risk{}, err
	}
	select {
	case rep := <-ch:
		return rep.risk, rep.err
	case <-ctx.Done():
		return Risk{}, ctx.Err()
	}
}

// Evict parks a user's state: pooled extraction scratch is released
// and window buffers shrink to their live points, without losing any
// state — the next fix for the user resumes exactly where the stream
// left off. It reports whether the user existed.
func (e *Engine) Evict(ctx context.Context, userID string) (bool, error) {
	found := false
	err := e.onShard(ctx, e.shardFor(userID), func(s *shard) {
		found = s.evict(userID)
	})
	if err != nil {
		// The op may still run later and write found.
		return false, err
	}
	return found, nil
}

// SyncAll recomputes the risk snapshot of every dirty user on every
// shard and returns when done — the barrier difftest and the flush
// ticker use. Values are independent of when (or whether) SyncAll
// runs between ingests; only snapshot freshness changes.
func (e *Engine) SyncAll(ctx context.Context) error {
	sp := e.obsm.root.Child("sync_all")
	defer sp.End()
	return e.eachShard(ctx, func(s *shard) { s.syncDirty() })
}

// FinalizeAll ends every user's stream: open stays are flushed (the
// batch pipeline's final Flush) and snapshots recomputed. This is the
// point after which streamed state is byte-comparable to a batch
// BuildProfile run. Users keep accepting fixes afterwards — a flush
// is a stream break, not a shutdown — but difftest finalizes exactly
// once, at end of replay.
func (e *Engine) FinalizeAll(ctx context.Context) error {
	sp := e.obsm.root.Child("finalize_all")
	defer sp.End()
	return e.eachShard(ctx, func(s *shard) { s.finalizeAll() })
}

// Users returns the ids of all users that ever ingested, sorted.
func (e *Engine) Users(ctx context.Context) ([]string, error) {
	var mu sync.Mutex
	var ids []string
	err := e.eachShard(ctx, func(s *shard) {
		mu.Lock()
		defer mu.Unlock()
		for id := range s.users {
			ids = append(ids, id)
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(ids)
	return ids, nil
}

// Footprint sums the retained extraction-buffer bytes across all
// users — the quantity the bounded-memory property test pins.
func (e *Engine) Footprint(ctx context.Context) (int, error) {
	var mu sync.Mutex
	total := 0
	err := e.eachShard(ctx, func(s *shard) {
		n := 0
		for _, st := range s.users {
			n += st.builder.Footprint()
		}
		mu.Lock()
		total += n
		mu.Unlock()
	})
	return total, err
}

// Snapshot returns the user's live profile for inspection. The
// returned profile is the shard's working state: it is only safe to
// read while no more fixes arrive for the user (difftest calls it
// after FinalizeAll on a quiesced engine).
func (e *Engine) Snapshot(ctx context.Context, userID string) (*core.Profile, error) {
	var prof *core.Profile
	err := e.onShard(ctx, e.shardFor(userID), func(s *shard) {
		if st := s.users[userID]; st != nil {
			prof = st.builder.Peek()
		}
	})
	if err != nil {
		return nil, err
	}
	if prof == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, userID)
	}
	return prof, nil
}

// onShard runs op inside one shard's goroutine and waits for it.
func (e *Engine) onShard(ctx context.Context, sh *shard, op func(*shard)) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	done := make(chan struct{})
	if err := sh.submit(ctx, func() {
		defer close(done)
		op(sh)
	}); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// eachShard runs op inside every shard's goroutine and waits for all.
func (e *Engine) eachShard(ctx context.Context, op func(*shard)) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	var wg sync.WaitGroup
	errs := make([]error, len(e.shards))
	for i, sh := range e.shards {
		i, sh := i, sh
		wg.Add(1)
		if err := sh.submit(ctx, func() {
			defer wg.Done()
			op(sh)
		}); err != nil {
			errs[i] = err
			wg.Done()
		}
	}
	// The barrier must not abandon submitted ops: each op was accepted
	// under ctx, the shards drain without taking Engine.mu, so Wait is
	// bounded by queued work and the held read lock only fences off
	// Close.
	wg.Wait()
	return errors.Join(errs...)
}

// Close drains every shard queue and stops the shard goroutines (and
// the flush ticker). Idempotent; methods return ErrClosed afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	// No new submissions can start now (closed is set under the write
	// lock every submitter reads under); stop the ticker, then let the
	// shards drain what is queued.
	if e.tickStop != nil {
		close(e.tickStop)
		<-e.tickDone
	}
	for _, sh := range e.shards {
		sh.close()
	}
	e.obsm.root.End()
	return nil
}
