package stream

import (
	"context"

	"locwatch/internal/core"
	"locwatch/internal/privlog"
	"locwatch/internal/trace"
)

// userState is one user's streaming state, owned by exactly one shard
// goroutine — no field is ever touched from outside it.
type userState struct {
	builder *core.ProfileBuilder
	fixes   int // fixes fed so far
	dirty   int // fixes since the last risk recompute
	err     error
	risk    Risk
	hasRisk bool
	parked  bool
}

// shard owns one slice of the user population. All state mutation
// happens inside run, which consumes the ops queue in FIFO order —
// that single consumer is what turns "arrival order" into "feed
// order" and makes the engine batch-equivalent (DESIGN.md §9).
type shard struct {
	eng  *Engine
	ops  chan func()
	done chan struct{}

	// users is goroutine-local to run (and to closures executed by
	// run); the engine reads it only through submitted ops.
	users map[string]*userState
}

func newShard(e *Engine, id int) *shard {
	s := &shard{
		eng:   e,
		ops:   make(chan func(), e.cfg.QueueDepth),
		done:  make(chan struct{}),
		users: make(map[string]*userState),
	}
	go s.run()
	return s
}

// run is the shard goroutine: execute ops until the queue closes.
func (s *shard) run() {
	defer close(s.done)
	for op := range s.ops {
		s.eng.obsm.queueDepth.Dec()
		op()
	}
}

// submit enqueues op, blocking while the queue is full (backpressure)
// unless ctx gives up first. The caller must hold the engine's read
// lock, which is what excludes close.
func (s *shard) submit(ctx context.Context, op func()) error {
	select {
	case s.ops <- op:
		s.eng.obsm.queueDepth.Inc()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops the shard after draining queued ops. Only Engine.Close
// calls it, after publishing closed so no submit can race the close.
func (s *shard) close() {
	close(s.ops)
	<-s.done
}

// state returns the user's state, creating it on first ingest.
func (s *shard) state(userID string) *userState {
	st := s.users[userID]
	if st == nil {
		// New's probe builder proved these params construct; a failure
		// here would be a programming error, so it poisons the user
		// rather than panicking the shard.
		b, err := core.NewProfileBuilder(s.eng.cfg.Anchor, s.eng.cfg.Core)
		st = &userState{builder: b}
		if err != nil {
			st.err = privlog.New(err).Component("stream").Category(privlog.CategoryInternal).Build()
		}
		s.users[userID] = st
		s.eng.obsm.users.Inc()
	}
	return st
}

// ingest feeds one batch for one user; runs inside the shard
// goroutine. An out-of-order fix poisons the user (the error is
// served on query), not the shard: one misbehaving producer must not
// take down its shard-mates.
func (s *shard) ingest(userID string, fixes []trace.Point) {
	st := s.state(userID)
	if st.err != nil {
		s.eng.obsm.rejects.Add(uint64(len(fixes)))
		return
	}
	if st.parked {
		st.parked = false
		s.eng.obsm.parked.Dec()
	}
	fed := 0
	for _, p := range fixes {
		if err := st.builder.Feed(p); err != nil {
			// The poi error carries timestamps only, never coordinates,
			// but route it through privlog anyway: this is the service
			// boundary, and the 409 body serves this error.
			st.err = privlog.New(err).Component("stream").Category(privlog.CategorySim).
				Context("user", userID).Build()
			s.eng.obsm.rejects.Add(uint64(len(fixes) - fed))
			break
		}
		fed++
	}
	st.fixes += fed
	st.dirty += fed
	s.eng.obsm.fixes.Add(uint64(fed))
	// Debounced scheduler: recompute once enough new evidence piled
	// up. Queries and SyncAll cover the tail below the threshold.
	if st.dirty >= s.eng.cfg.RecomputeEvery {
		s.recompute(userID, st, false)
	}
}

// recompute refreshes the user's risk snapshot from the live profile
// (Peek — non-destructive) or, on finalize, from the flushed profile.
func (s *shard) recompute(userID string, st *userState, finalize bool) {
	if st.err != nil {
		return
	}
	t := s.eng.obsm.recomputeSeconds.Timer()
	defer t.Stop()
	prof := st.builder.Peek()
	if finalize {
		prof = st.builder.Profile()
	}
	risk, err := ComputeRisk(userID, prof, s.eng.cfg.References, s.eng.cfg.SensitiveMaxVisits, s.eng.cfg.Pattern)
	if err != nil {
		st.err = privlog.New(err).Component("stream").Category(privlog.CategorySim).
			Context("user", userID).Build()
		return
	}
	risk.Fixes = st.fixes
	risk.Finalized = finalize
	st.risk = risk
	st.hasRisk = true
	st.dirty = 0
	s.eng.obsm.recomputes.Inc()
}

// risk serves the user's snapshot, computing one on first query.
func (s *shard) risk(userID string) (Risk, error) {
	st := s.users[userID]
	if st == nil {
		return Risk{}, ErrUnknownUser
	}
	if st.err != nil {
		return Risk{}, st.err
	}
	if !st.hasRisk {
		s.recompute(userID, st, false)
		if st.err != nil {
			return Risk{}, st.err
		}
	}
	r := st.risk
	r.StaleFixes = st.dirty
	return r, nil
}

// evict parks a user: pooled scratch released, buffers shrunk to live
// points, everything else untouched. Reports whether the user exists.
func (s *shard) evict(userID string) bool {
	st := s.users[userID]
	if st == nil {
		return false
	}
	if !st.parked {
		st.builder.Park()
		st.parked = true
		s.eng.obsm.parked.Inc()
		s.eng.obsm.evictions.Inc()
	}
	return true
}

// syncDirty recomputes every dirty user's snapshot.
func (s *shard) syncDirty() {
	for id, st := range s.users {
		if st.err == nil && (st.dirty > 0 || !st.hasRisk) {
			s.recompute(id, st, false)
		}
	}
}

// finalizeAll flushes every user's open stay and recomputes — the
// batch pipeline's end-of-stream Flush, applied shard-wide.
func (s *shard) finalizeAll() {
	for id, st := range s.users {
		if st.err == nil {
			s.recompute(id, st, true)
		}
	}
}
