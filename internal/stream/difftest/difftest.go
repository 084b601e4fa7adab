// Package difftest is the differential harness for the streaming
// engine: it replays the same simulated traces through the batch
// pipeline (core.BuildProfile, the reference semantics) and through a
// live stream.Engine under an adversarial schedule — randomized batch
// sizes, randomized cross-user interleaving, arbitrary shard counts,
// wall-clock flush timing, mid-stream eviction — and asserts the two
// end states are byte-identical: profile fingerprints down to the
// float bits, and risk metrics field by field.
//
// The harness is a library so the golden tests, the race soak, and
// future regression sweeps all share one definition of "identical".
package difftest

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/mobility"
	"locwatch/internal/stream"
)

// Fingerprint digests a profile to a hex string that is equal iff the
// profiles are byte-identical in every field the paper's metrics read:
// point count, canonical places (ids, centroid float bits, visit
// counts, dwell), and both pattern histograms (keys and count float
// bits). Floats are folded in as their IEEE-754 bit patterns, so two
// values differing in the last ulp fingerprint differently — this is
// deliberately stricter than any tolerance-based comparison.
func Fingerprint(p *core.Profile) string {
	h := sha256.New()
	writeInt(h, p.NumPoints())
	writeInt(h, p.NumVisits())
	places := p.Places()
	writeInt(h, len(places))
	for _, pl := range places {
		writeInt(h, pl.ID)
		writeFloat(h, pl.Pos.Lat)
		writeFloat(h, pl.Pos.Lon)
		writeInt(h, pl.Visits)
		writeInt(h, int(pl.Dwell))
	}
	for _, pat := range []core.Pattern{core.PatternRegion, core.PatternMovement} {
		hist := p.Histogram(pat)
		keys := append([]string(nil), hist.Keys()...)
		sort.Strings(keys)
		writeInt(h, len(keys))
		for _, k := range keys {
			_, _ = h.Write([]byte(k)) // hash.Hash.Write never errors
			_, _ = h.Write([]byte{0})
			writeFloat(h, hist.Count(k))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	_, _ = h.Write(b[:]) // hash.Hash.Write never errors
}

func writeFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	_, _ = h.Write(b[:]) // hash.Hash.Write never errors
}

// Run is one side's end state: per-user profile fingerprints and
// finalized risk snapshots, keyed by stream.UserID.
type Run struct {
	Profiles map[string]string
	Risks    map[string]stream.Risk
}

// Equal reports the first divergence between two runs, or nil if they
// are identical. Risk structs are compared with ==, so every field —
// including the float bits of DegAnonymity — must match exactly.
func (r *Run) Equal(other *Run) error {
	if len(r.Profiles) != len(other.Profiles) {
		return fmt.Errorf("difftest: %d users vs %d", len(r.Profiles), len(other.Profiles))
	}
	ids := make([]string, 0, len(r.Profiles))
	for id := range r.Profiles {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ofp, ok := other.Profiles[id]
		if !ok {
			return fmt.Errorf("difftest: user %s missing from other run", id)
		}
		if fp := r.Profiles[id]; fp != ofp {
			return fmt.Errorf("difftest: user %s: profile fingerprints differ: %s vs %s", id, fp[:12], ofp[:12])
		}
		if a, b := r.Risks[id], other.Risks[id]; a != b {
			return fmt.Errorf("difftest: user %s: risk differs: %+v vs %+v", id, a, b)
		}
	}
	return nil
}

// BatchRun computes the reference end state: for every selected user a
// plain core.BuildProfile over the full trace, scored through the same
// stream.ComputeRisk the engine uses. Fixes and Finalized are set to
// the values a finalized stream must report, so the structs compare
// with ==.
func BatchRun(w *mobility.World, cfg stream.Config, interval time.Duration, users []int) (*Run, error) {
	cfg = cfg.WithDefaults()
	if users == nil {
		users = allUsers(w)
	}
	run := &Run{Profiles: map[string]string{}, Risks: map[string]stream.Risk{}}
	for _, u := range users {
		id := stream.UserID(u)
		src, err := w.Trace(u, interval)
		if err != nil {
			return nil, fmt.Errorf("difftest: batch user %s: %w", id, err)
		}
		prof, err := core.BuildProfile(src, cfg.Anchor, cfg.Core)
		if err != nil {
			return nil, fmt.Errorf("difftest: batch user %s: %w", id, err)
		}
		risk, err := stream.ComputeRisk(id, prof, cfg.References, cfg.SensitiveMaxVisits, cfg.Pattern)
		if err != nil {
			return nil, fmt.Errorf("difftest: batch user %s: %w", id, err)
		}
		risk.Fixes = prof.NumPoints()
		risk.Finalized = true
		run.Profiles[id] = Fingerprint(prof)
		run.Risks[id] = risk
	}
	return run, nil
}

// StreamRun replays the world through a fresh engine under the given
// schedule, finalizes, and captures the end state. The engine is
// closed before returning; snapshots are taken on the quiesced engine
// between FinalizeAll and Close.
func StreamRun(ctx context.Context, w *mobility.World, cfg stream.Config, rcfg stream.ReplayConfig) (*Run, error) {
	if rcfg.Interval <= 0 {
		return nil, fmt.Errorf("difftest: replay interval must be set")
	}
	eng, err := stream.New(cfg)
	if err != nil {
		return nil, err
	}
	// Teardown ignores ctx: it must drain whatever the replay enqueued,
	// and abandoning it on cancel would leak the shard goroutines.
	defer func() { _ = eng.Close() }()
	if _, err := stream.Replay(ctx, eng, w, rcfg); err != nil {
		return nil, err
	}
	if err := eng.FinalizeAll(ctx); err != nil {
		return nil, err
	}
	users := rcfg.Users
	if users == nil {
		users = allUsers(w)
	}
	run := &Run{Profiles: map[string]string{}, Risks: map[string]stream.Risk{}}
	for _, u := range users {
		id := stream.UserID(u)
		prof, err := eng.Snapshot(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("difftest: stream user %s: %w", id, err)
		}
		risk, err := eng.Risk(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("difftest: stream user %s: %w", id, err)
		}
		run.Profiles[id] = Fingerprint(prof)
		run.Risks[id] = risk
	}
	return run, nil
}

func allUsers(w *mobility.World) []int {
	users := make([]int, w.NumUsers())
	for i := range users {
		users[i] = i
	}
	return users
}
