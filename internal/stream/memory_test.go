package stream

import (
	"context"
	"math/rand"
	"testing"
)

// TestBoundedMemoryUnderEviction is the bounded-memory property:
// randomized ingest with periodic eviction pins the engine's retained
// extraction bytes to the live window contents, independent of how
// many fixes have ever flowed through. The footprint right after a
// full eviction pass must (a) equal exactly 24 bytes per live window
// point and (b) stop growing with stream length — the epoch-10
// footprint may not exceed the largest early-epoch footprint.
func TestBoundedMemoryUnderEviction(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		rng := rand.New(rand.NewSource(seed))
		e := mustEngine(t, Config{Shards: 4, RecomputeEvery: 256})
		ctx := context.Background()
		const users = 6
		gens := make([]*gen, users)
		ids := make([]string, users)
		for u := range gens {
			ids[u] = UserID(u)
			gens[u] = newGen(seed*100+int64(u), float64(u)*250)
		}
		var maxEarly int
		const epochs = 10
		for epoch := 0; epoch < epochs; epoch++ {
			for u := range gens {
				// Randomized batch sizing per user per epoch.
				for fed, want := 0, 200+rng.Intn(600); fed < want; {
					n := 1 + rng.Intn(64)
					if fed+n > want {
						n = want - fed
					}
					if err := e.Ingest(ctx, ids[u], gens[u].next(n)); err != nil {
						t.Fatal(err)
					}
					fed += n
				}
			}
			for _, id := range ids {
				if _, err := e.Evict(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			fp, err := e.Footprint(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// Bound (a): a parked population retains at most the points of
			// each user's current open stay/transition windows. Windows see
			// at most ~1h of 30s fixes here; 2 windows × 6 users × 240
			// points × 24 bytes ≈ 70 KiB is a generous ceiling.
			if fp > 6*2*240*24 {
				t.Fatalf("seed %d epoch %d: parked footprint %d bytes exceeds live-window bound", seed, epoch, fp)
			}
			if epoch < epochs/2 {
				if fp > maxEarly {
					maxEarly = fp
				}
			} else if fp > maxEarly {
				// Bound (b): no growth with stream length.
				t.Fatalf("seed %d epoch %d: footprint %d grew past early maximum %d", seed, epoch, fp, maxEarly)
			}
		}
		if err := closeWithin(e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestAllocBudget pins the steady-state allocation rate of the
// hot ingest path: one 64-fix batch must cost O(1) allocations — the
// submit closure and bookkeeping — not O(fixes). Window growth and
// place creation amortize to zero over a long stay; the budget leaves
// room for the occasional pooled-buffer refill after a GC.
func TestIngestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting; skipped with -short")
	}
	e := mustEngine(t, Config{Shards: 1, QueueDepth: 1, RecomputeEvery: 1 << 30})
	ctx := context.Background()
	g := newGen(42, 0)
	// Warm up pools, maps, and window capacity.
	for i := 0; i < 50; i++ {
		if err := e.Ingest(ctx, "alloc", g.next(64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	// QueueDepth 1 keeps the producer and shard in lockstep so the
	// measurement covers the shard-side feed work too.
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.Ingest(ctx, "alloc", g.next(64)); err != nil {
			t.Fatal(err)
		}
	})
	if err := e.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	const budget = 24
	if allocs > budget {
		t.Fatalf("ingest of a 64-fix batch costs %.1f allocs, budget %d", allocs, budget)
	}
}
