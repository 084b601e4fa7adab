package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/mobility"
	"locwatch/internal/stream"
)

// referenceInterval is the sampling interval `locwatchd -refs` builds
// its reference profiles at (its -interval default).
const referenceInterval = time.Minute

// buildReferences rebuilds the scoring set the way `locwatchd -refs`
// does at startup: every user's full-period profile is both the user's
// His_bin reference and a candidate for the identification adversary.
func buildReferences(w *mobility.World, cfg stream.Config) (*stream.References, error) {
	byUser := make(map[string]*core.Profile, w.NumUsers())
	candidates := make([]*core.Profile, 0, w.NumUsers())
	for u := 0; u < w.NumUsers(); u++ {
		src, err := w.Trace(u, referenceInterval)
		if err != nil {
			return nil, err
		}
		prof, err := core.BuildProfile(src, cfg.Anchor, cfg.Core)
		if err != nil {
			return nil, fmt.Errorf("reference for user %d: %w", u, err)
		}
		byUser[stream.UserID(u)] = prof
		candidates = append(candidates, prof)
	}
	return stream.NewReferences(cfg.Pattern, byUser, candidates)
}

// expectedRisk is the risk a correct server serves for user u once it
// has fed the user's first fixes fixes: stream.ComputeRisk on the live
// (peeked, not flushed) profile of exactly those fixes.
func expectedRisk(w *mobility.World, u, fixes int, cfg stream.Config) (stream.Risk, error) {
	b, err := core.NewProfileBuilder(cfg.Anchor, cfg.Core)
	if err != nil {
		return stream.Risk{}, err
	}
	defer b.Release()
	src := newLoopSource(w, u)
	for i := 0; i < fixes; i++ {
		p, err := src.Next()
		if err != nil {
			return stream.Risk{}, err
		}
		if err := b.Feed(p); err != nil {
			return stream.Risk{}, err
		}
	}
	r, err := stream.ComputeRisk(stream.UserID(u), b.Peek(), cfg.References, cfg.SensitiveMaxVisits, cfg.Pattern)
	r.Fixes = fixes
	return r, err
}

// checkServer is the stream output oracle, run once the load has
// drained. For every user that sent fixes it asks the server for the
// user's risk and checks that
//
//   - the fixes the server acknowledged (the sum of its 202 counts)
//     are exactly the fixes the snapshot covers plus the stale ones;
//   - the snapshot equals expectedRisk for the fixes it covers, every
//     field but stale_fixes.
//
// Users are checked on their own connections, both at once.
func (g *generator) checkServer(ctx context.Context, w *mobility.World, cfg stream.Config) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for u, f := range g.users {
				if connOf(u) != c || f.accepted() == 0 {
					continue
				}
				if err := g.checkUser(ctx, g.clients[c], w, u, cfg); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	//lint:ignore ctxflow each connection goroutine returns as soon as ctx ends
	wg.Wait()
	return errors.Join(errs...)
}

func (g *generator) checkUser(ctx context.Context, c *http.Client, w *mobility.World, u int, cfg stream.Config) error {
	f := g.users[u]
	got, ok, err := g.risk(ctx, c, f)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("user %s: final risk query failed", f.id)
	}
	if total := got.Fixes + got.StaleFixes; total != f.accepted() {
		return fmt.Errorf("user %s: server acknowledged %d fixes but its snapshot accounts for %d", f.id, f.accepted(), total)
	}
	want, err := expectedRisk(w, u, got.Fixes, cfg)
	if err != nil {
		return fmt.Errorf("user %s: recomputing risk: %w", f.id, err)
	}
	want.StaleFixes = got.StaleFixes
	if got != want {
		return fmt.Errorf("user %s: served risk %+v, recomputed %+v", f.id, got, want)
	}
	return nil
}
