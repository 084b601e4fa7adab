package stream

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/trace"
)

// gen lazily extends one user's synthetic trace: alternating stays and
// walks with rng-chosen dwell and direction, timestamps strictly
// monotone — an endless well-formed producer for soak runs.
type gen struct {
	tb  *tb
	rng *rand.Rand
	cur int
}

func newGen(seed int64, offsetMeters float64) *gen {
	return &gen{tb: newTB(offsetMeters), rng: rand.New(rand.NewSource(seed))}
}

func (g *gen) next(n int) []trace.Point {
	for len(g.tb.pts)-g.cur < n {
		g.tb.stay(time.Duration(12+g.rng.Intn(48)) * time.Minute)
		g.tb.walk(float64(g.rng.Intn(360)), 300+float64(g.rng.Intn(600)))
	}
	out := g.tb.pts[g.cur : g.cur+n]
	g.cur += n
	return out
}

// TestSoakConcurrentIngestReadEvict is the race-detector soak: per-user
// ingesters, risk/users/footprint readers, and a periodic evictor all
// hammer one engine concurrently; afterwards every user's finalized
// state must equal an independent batch rebuild of exactly the points
// that were ingested. Run it under -race (CI does).
func TestSoakConcurrentIngestReadEvict(t *testing.T) {
	const (
		users          = 12
		batchesPerUser = 60
		batchSize      = 40
	)
	e := mustEngine(t, Config{Shards: 4, QueueDepth: 8, RecomputeEvery: 128})
	ctx := context.Background()

	ids := make([]string, users)
	gens := make([]*gen, users)
	for u := range gens {
		ids[u] = fmt.Sprintf("soak-%02d", u)
		gens[u] = newGen(int64(u)+1, float64(u)*200)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: risk + listing + footprint, until the ingesters finish.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0:
					// Unknown-user errors are fine; shard errors are not.
					if _, err := e.Risk(ctx, ids[rng.Intn(users)]); err != nil && err != ErrUnknownUser {
						t.Error(err)
						return
					}
				case 1:
					if _, err := e.Users(ctx); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := e.Footprint(ctx); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(100 + r))
	}

	// Evictor: parks random users the whole run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(999))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Evict(ctx, ids[rng.Intn(users)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Ingesters: one goroutine per user (per-user order preserved).
	var ing sync.WaitGroup
	for u := 0; u < users; u++ {
		ing.Add(1)
		go func(u int) {
			defer ing.Done()
			for b := 0; b < batchesPerUser; b++ {
				if err := e.Ingest(ctx, ids[u], gens[u].next(batchSize)); err != nil {
					t.Error(err)
					return
				}
			}
		}(u)
	}
	ing.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	if err := e.FinalizeAll(ctx); err != nil {
		t.Fatal(err)
	}
	// Every user's end state must equal a batch rebuild of its points.
	for u := 0; u < users; u++ {
		pts := gens[u].tb.pts[:gens[u].cur]
		want, err := core.BuildProfile(trace.NewSliceSource(pts), testAnchor, core.Params{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Risk(ctx, ids[u])
		if err != nil {
			t.Fatal(err)
		}
		if got.Fixes != len(pts) || got.Visits != want.NumVisits() || got.PoITotal != want.NumPlaces() {
			t.Fatalf("user %s: stream %+v vs batch %d visits / %d places over %d points",
				ids[u], got, want.NumVisits(), want.NumPlaces(), want.NumPoints())
		}
	}
}

// TestSoakCloseWhileBusy shuts the engine down while producers are
// mid-stream: every Ingest must return nil or ErrClosed — never panic,
// never deadlock.
func TestSoakCloseWhileBusy(t *testing.T) {
	e := mustEngine(t, Config{Shards: 2, QueueDepth: 4})
	ctx := context.Background()
	var wg sync.WaitGroup
	for u := 0; u < 8; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			g := newGen(int64(u)+50, float64(u)*150)
			for b := 0; b < 200; b++ {
				if err := e.Ingest(ctx, fmt.Sprintf("burst-%d", u), g.next(16)); err != nil {
					if err == ErrClosed {
						return
					}
					t.Error(err)
					return
				}
			}
		}(u)
	}
	time.Sleep(5 * time.Millisecond)
	if err := closeWithin(e); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
