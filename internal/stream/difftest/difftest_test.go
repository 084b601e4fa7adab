package difftest

import (
	"context"
	"testing"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/experiments"
	"locwatch/internal/mobility"
	"locwatch/internal/stream"
	"locwatch/internal/trace"
)

// quickSetup builds the Quick-scale world (24 users, 8 days — the
// benchmark/smoke configuration) plus a stream.Config whose references
// are the users' own batch profiles, so His_bin and the identification
// adversary carry real signal in the comparison.
func quickSetup(t testing.TB, interval time.Duration) (*mobility.World, stream.Config) {
	t.Helper()
	qc := experiments.Quick()
	w, err := mobility.New(qc.Mobility)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{
		Anchor:             qc.Mobility.CityCenter,
		Core:               qc.Core,
		SensitiveMaxVisits: qc.SensitiveMaxVisits,
	}
	byUser := make(map[string]*core.Profile, w.NumUsers())
	candidates := make([]*core.Profile, 0, w.NumUsers())
	for u := 0; u < w.NumUsers(); u++ {
		src, err := w.Trace(u, interval)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := core.BuildProfile(src, cfg.Anchor, cfg.Core)
		if err != nil {
			t.Fatal(err)
		}
		byUser[stream.UserID(u)] = prof
		candidates = append(candidates, prof)
	}
	refs, err := stream.NewReferences(cfg.Pattern, byUser, candidates)
	if err != nil {
		t.Fatal(err)
	}
	cfg.References = refs
	return w, cfg
}

// TestGoldenQuickShardSweep is the PR's headline assertion: the
// Quick-config population replayed through the streaming engine ends
// byte-identical to the batch pipeline for every shard count, under
// schedules that vary batch sizing, interleaving seed, debounce
// threshold, wall-clock flush timing, and mid-stream eviction.
func TestGoldenQuickShardSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-config replay sweep; skipped with -short")
	}
	const interval = time.Minute
	w, cfg := quickSetup(t, interval)
	ctx := context.Background()

	batch, err := BatchRun(w, cfg, interval, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Profiles) != w.NumUsers() {
		t.Fatalf("batch covered %d users, want %d", len(batch.Profiles), w.NumUsers())
	}

	cases := []struct {
		name   string
		shards int
		rcfg   stream.ReplayConfig
		tweak  func(*stream.Config)
	}{
		{
			name:   "shards=1/single-fix-batches",
			shards: 1,
			rcfg:   stream.ReplayConfig{Interval: interval, MinBatch: 1, MaxBatch: 1, Seed: 1},
		},
		{
			name:   "shards=4/random-batches/evict",
			shards: 4,
			rcfg:   stream.ReplayConfig{Interval: interval, MinBatch: 1, MaxBatch: 257, Seed: 42, EvictEvery: 50},
			tweak:  func(c *stream.Config) { c.RecomputeEvery = 64 },
		},
		{
			name:   "shards=16/large-batches/ticker",
			shards: 16,
			rcfg:   stream.ReplayConfig{Interval: interval, MinBatch: 100, MaxBatch: 1000, Seed: 7, EvictEvery: 11},
			tweak: func(c *stream.Config) {
				c.RecomputeEvery = 8192
				c.FlushInterval = 3 * time.Millisecond // wall-clock flushes racing the replay
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scfg := cfg
			scfg.Shards = tc.shards
			if tc.tweak != nil {
				tc.tweak(&scfg)
			}
			streamed, err := StreamRun(ctx, w, scfg, tc.rcfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := batch.Equal(streamed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiffSmallWorld runs both sides of the harness on a small
// population so it is exercised in -short runs too.
func TestDiffSmallWorld(t *testing.T) {
	mc := mobility.DefaultConfig()
	mc.Users = 6
	mc.Days = 3
	w, err := mobility.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{Anchor: mc.CityCenter, Shards: 3}
	rcfg := stream.ReplayConfig{Interval: 30 * time.Second, MinBatch: 1, MaxBatch: 97, Seed: 3, EvictEvery: 20}
	run, err := BatchRun(w, cfg, rcfg.Interval, rcfg.Users)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := StreamRun(context.Background(), w, cfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Equal(streamed); err != nil {
		t.Fatal(err)
	}
	if len(run.Profiles) != mc.Users {
		t.Fatalf("diff covered %d users, want %d", len(run.Profiles), mc.Users)
	}
	for id, r := range run.Risks {
		if !r.Finalized || r.Fixes == 0 {
			t.Fatalf("user %s: batch risk not normalized: %+v", id, r)
		}
	}
}

// TestFingerprintDiscriminates guards the harness against the failure
// mode that would make every comparison vacuously pass: fingerprints
// must differ across users and across truncated traces, and must be
// stable for identical rebuilds.
func TestFingerprintDiscriminates(t *testing.T) {
	mc := mobility.DefaultConfig()
	mc.Users = 2
	mc.Days = 2
	w, err := mobility.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	build := func(u int, limit int) *core.Profile {
		t.Helper()
		src, err := w.Trace(u, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var s trace.Source = src
		if limit > 0 {
			s = trace.NewHead(src, limit)
		}
		prof, err := core.BuildProfile(s, mc.CityCenter, core.Params{})
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	a1, a2 := Fingerprint(build(0, 0)), Fingerprint(build(0, 0))
	if a1 != a2 {
		t.Fatal("identical rebuilds fingerprint differently")
	}
	if b := Fingerprint(build(1, 0)); b == a1 {
		t.Fatal("distinct users share a fingerprint")
	}
	if h := Fingerprint(build(0, 500)); h == a1 {
		t.Fatal("truncated trace shares the full trace's fingerprint")
	}
}
