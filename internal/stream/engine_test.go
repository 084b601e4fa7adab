package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/geo"
	"locwatch/internal/trace"
)

var testAnchor = geo.LatLon{Lat: 39.99, Lon: 116.31}

// tb builds synthetic traces for engine tests: stays of configurable
// dwell at venues placed by local offset, connected by walks, sampled
// every 30 s — enough density for the default extractor (50 m radius,
// 10 min dwell) to find every stay.
type tb struct {
	pts []trace.Point
	pos geo.LatLon
	t   time.Time
}

func newTB(startOffsetMeters float64) *tb {
	pos := testAnchor
	if startOffsetMeters != 0 {
		pos = geo.Destination(testAnchor, 90, startOffsetMeters)
	}
	return &tb{pos: pos, t: time.Date(2026, 3, 2, 8, 0, 0, 0, time.UTC)}
}

func (b *tb) emit() {
	b.pts = append(b.pts, trace.Point{Pos: b.pos, T: b.t})
	b.t = b.t.Add(30 * time.Second)
}

func (b *tb) stay(d time.Duration) *tb {
	for end := b.t.Add(d); b.t.Before(end); {
		b.emit()
	}
	return b
}

func (b *tb) walk(bearingDeg, meters float64) *tb {
	const speed = 1.4 // m/s
	steps := int(meters / (speed * 30))
	for i := 0; i < steps; i++ {
		b.pos = geo.Destination(b.pos, bearingDeg, speed*30)
		b.emit()
	}
	return b
}

// commute is a two-venue day with enough dwell to yield visits.
func commute(offset float64) []trace.Point {
	return newTB(offset).
		stay(45*time.Minute).
		walk(0, 600).
		stay(30*time.Minute).
		walk(180, 600).
		stay(20 * time.Minute).pts
}

func mustEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	cfg.Anchor = testAnchor
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := closeWithin(e); err != nil {
			t.Error(err)
		}
	})
	return e
}

// closeTimeout bounds every Close a test waits for.
const closeTimeout = 5 * time.Second

// closeWithin calls e.Close on its own goroutine and returns its
// error, or an error of its own if Close has not returned within
// closeTimeout. A Close that deadlocks then fails its test in seconds
// instead of hanging the package until the test binary's timeout; the
// blocked call is left behind.
func closeWithin(e *Engine) error {
	done := make(chan error, 1)
	go func() { done <- e.Close() }()
	select {
	case err := <-done:
		return err
	case <-time.After(closeTimeout):
		return fmt.Errorf("Close did not return within %v", closeTimeout)
	}
}

func TestIngestAndRiskRoundTrip(t *testing.T) {
	e := mustEngine(t, Config{Shards: 2})
	ctx := context.Background()
	pts := commute(0)
	if err := e.Ingest(ctx, "alice", pts); err != nil {
		t.Fatal(err)
	}
	if err := e.FinalizeAll(ctx); err != nil {
		t.Fatal(err)
	}
	r, err := e.Risk(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if r.UserID != "alice" || r.Fixes != len(pts) || !r.Finalized {
		t.Fatalf("risk = %+v", r)
	}
	// The walk out and back makes the first and last stay one canonical
	// place: 3 visits over 2 places.
	if r.Visits != 3 || r.PoITotal != 2 {
		t.Fatalf("want 3 visits at 2 places, got %+v", r)
	}
	if r.StaleFixes != 0 {
		t.Fatalf("finalized snapshot is stale: %+v", r)
	}
	if r.DegAnonymity != 1 || r.HisBin != 0 {
		t.Fatalf("reference-free run must be max-anonymity: %+v", r)
	}
}

func TestRiskUnknownUser(t *testing.T) {
	e := mustEngine(t, Config{})
	if _, err := e.Risk(context.Background(), "nobody"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v, want ErrUnknownUser", err)
	}
}

func TestIngestValidation(t *testing.T) {
	e := mustEngine(t, Config{MaxBatch: 8})
	ctx := context.Background()
	if err := e.Ingest(ctx, "", commute(0)[:1]); err == nil {
		t.Fatal("empty user id accepted")
	}
	if err := e.Ingest(ctx, "alice", make([]trace.Point, 9)); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
	if err := e.Ingest(ctx, "alice", nil); err != nil {
		t.Fatalf("empty batch must be a no-op, got %v", err)
	}
}

// TestOutOfOrderPoisonsUserNotShard pins the blast radius of a
// misbehaving producer: the user's queries fail, shard-mates are
// untouched.
func TestOutOfOrderPoisonsUserNotShard(t *testing.T) {
	e := mustEngine(t, Config{Shards: 1}) // same shard for everyone
	ctx := context.Background()
	pts := commute(0)
	if err := e.Ingest(ctx, "bad", pts[10:12]); err != nil {
		t.Fatal(err)
	}
	// Rewind: the second batch starts before the first ended.
	if err := e.Ingest(ctx, "bad", pts[:2]); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(ctx, "good", pts); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Risk(ctx, "bad"); err == nil {
		t.Fatal("poisoned user served a risk snapshot")
	}
	if _, err := e.Risk(ctx, "good"); err != nil {
		t.Fatalf("shard-mate poisoned too: %v", err)
	}
}

// TestDebounceScheduler pins the recompute policy: below the threshold
// snapshots go stale (StaleFixes counts up), crossing it recomputes,
// and SyncAll recomputes the tail.
func TestDebounceScheduler(t *testing.T) {
	e := mustEngine(t, Config{RecomputeEvery: 1 << 20})
	ctx := context.Background()
	pts := commute(0)
	if err := e.Ingest(ctx, "alice", pts[:10]); err != nil {
		t.Fatal(err)
	}
	r, err := e.Risk(ctx, "alice") // first query computes
	if err != nil {
		t.Fatal(err)
	}
	if r.Fixes != 10 || r.StaleFixes != 0 {
		t.Fatalf("first-query snapshot: %+v", r)
	}
	if err := e.Ingest(ctx, "alice", pts[10:20]); err != nil {
		t.Fatal(err)
	}
	r, err = e.Risk(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if r.Fixes != 10 || r.StaleFixes != 10 {
		t.Fatalf("below-threshold snapshot must be stale: %+v", r)
	}
	if err := e.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	r, err = e.Risk(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if r.Fixes != 20 || r.StaleFixes != 0 {
		t.Fatalf("SyncAll did not refresh: %+v", r)
	}
}

func TestEvictThenResume(t *testing.T) {
	e := mustEngine(t, Config{})
	ctx := context.Background()
	pts := commute(0)
	if err := e.Ingest(ctx, "alice", pts[:len(pts)/2]); err != nil {
		t.Fatal(err)
	}
	found, err := e.Evict(ctx, "alice")
	if err != nil || !found {
		t.Fatalf("evict = %v, %v", found, err)
	}
	if found, _ := e.Evict(ctx, "ghost"); found {
		t.Fatal("evicted a user that never existed")
	}
	if err := e.Ingest(ctx, "alice", pts[len(pts)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := e.FinalizeAll(ctx); err != nil {
		t.Fatal(err)
	}
	r, err := e.Risk(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if r.Fixes != len(pts) || r.Visits != 3 {
		t.Fatalf("post-eviction resume lost state: %+v", r)
	}
}

func TestCloseSemantics(t *testing.T) {
	e := mustEngine(t, Config{FlushInterval: time.Millisecond})
	ctx := context.Background()
	if err := e.Ingest(ctx, "alice", commute(0)); err != nil {
		t.Fatal(err)
	}
	if err := closeWithin(e); err != nil {
		t.Fatal(err)
	}
	if err := closeWithin(e); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if err := e.Ingest(ctx, "alice", commute(0)[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v", err)
	}
	if _, err := e.Risk(ctx, "alice"); !errors.Is(err, ErrClosed) {
		t.Fatalf("risk after close: %v", err)
	}
	if err := e.SyncAll(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
}

func TestUsersSorted(t *testing.T) {
	e := mustEngine(t, Config{Shards: 4})
	ctx := context.Background()
	for _, id := range []string{"zoe", "al", "mia"} {
		if err := e.Ingest(ctx, id, commute(0)[:2]); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := e.Users(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != "al" || ids[1] != "mia" || ids[2] != "zoe" {
		t.Fatalf("users = %v", ids)
	}
}

// stallShard blocks shard 0's goroutine inside an op and returns once
// the shard is in it. A timer ends the stall after d, so a call that
// never returns while the shard is stalled fails its test at d instead
// of hanging it until the binary's timeout; release ends it sooner.
func stallShard(t *testing.T, e *Engine, d time.Duration) (release func()) {
	t.Helper()
	unblock := make(chan struct{})
	entered := make(chan struct{})
	e.shards[0].ops <- func() { close(entered); <-unblock }
	<-entered
	var once sync.Once
	release = func() { once.Do(func() { close(unblock) }) }
	time.AfterFunc(d, release)
	t.Cleanup(release)
	return release
}

func TestIngestBackpressureRespectsContext(t *testing.T) {
	// One shard, queue of one, and the shard goroutine blocked: a
	// second submission must block and then honor cancellation.
	e := mustEngine(t, Config{Shards: 1, QueueDepth: 1})
	ctx := context.Background()
	stallShard(t, e, 2*time.Second)
	if err := e.Ingest(ctx, "alice", commute(0)[:1]); err != nil {
		t.Fatal(err) // fills the queue
	}
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	err := e.Ingest(cctx, "alice", commute(0)[1:2])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("backpressured ingest returned %v, want deadline exceeded", err)
	}
}

// TestRiskRespectsContext: a query whose op is queued behind a stalled
// shard gives up when its ctx does, instead of waiting for the reply.
func TestRiskRespectsContext(t *testing.T) {
	e := mustEngine(t, Config{Shards: 1})
	stallShard(t, e, 2*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.Risk(ctx, "alice"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Risk on a stalled shard returned %v, want deadline exceeded", err)
	}
}

// TestEvictRespectsContext: an eviction abandoned by its ctx returns
// without reading the result the shard writes later. The stall ends on
// a timer, not on a channel this goroutine closes, so nothing orders
// Evict's return before the shard's write and -race sees any read.
func TestEvictRespectsContext(t *testing.T) {
	e := mustEngine(t, Config{Shards: 1})
	stallShard(t, e, 250*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if found, err := e.Evict(ctx, "alice"); found || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Evict on a stalled shard = %v, %v; want false, deadline exceeded", found, err)
	}
	// Wait for the abandoned op to run, so its write lands inside this
	// test.
	if err := e.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsQueuedOps: Close returns only after every op queued
// before it has run.
func TestCloseDrainsQueuedOps(t *testing.T) {
	e := mustEngine(t, Config{Shards: 1})
	release := stallShard(t, e, 2*time.Second)
	ran := make(chan struct{})
	if err := e.shards[0].submit(context.Background(), func() { close(ran) }); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v while an op was still queued", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the stall ended")
	}
	select {
	case <-ran:
	default:
		t.Fatal("Close returned before the queued op ran")
	}
}

// TestCloseWithPendingTick closes an engine whose flush ticker is
// mid-SyncAll on a stalled shard, with a further tick buffered by the
// time the stall ends. Close must not hold the write lock while it
// waits for the ticker, whose next SyncAll needs the read lock. The
// engines are not closed by a test cleanup: a Close that deadlocks
// must fail the test, not hang it.
func TestCloseWithPendingTick(t *testing.T) {
	const interval = time.Millisecond
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	for i := 0; i < 10; i++ {
		e, err := New(Config{Anchor: testAnchor, Shards: 1, FlushInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		release := stallShard(t, e, 2*time.Second)
		waitFor("the tick's SyncAll op", func() bool { return len(e.shards[0].ops) >= 1 })
		closed := make(chan error, 1)
		go func() { closed <- e.Close() }()
		waitFor("Close to wait for the write lock", func() bool {
			if e.mu.TryRLock() {
				e.mu.RUnlock()
				return false
			}
			return true
		})
		time.Sleep(3 * interval) // a tick is buffered
		release()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: Close deadlocked with the flush ticker", i)
		}
	}
}

func TestConfigRejectsMismatchedReferencePattern(t *testing.T) {
	refs, err := NewReferences(core.PatternMovement, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Anchor: testAnchor, References: refs}) // engine runs PatternRegion
	if err == nil {
		t.Fatal("pattern mismatch accepted")
	}
}
