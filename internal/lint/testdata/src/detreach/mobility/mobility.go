// Package mobility is a fixture stub of the trace-emission entry
// points detreach roots on: World.Trace and friends must stay off the
// wall clock through every helper they can reach.
package mobility

import (
	"math/rand"
	"time"

	"detreach/geo"
	"detreach/obs"
	"detreach/util"
)

type World struct {
	start time.Time
}

// Trace is a deterministic root: everything it transitively calls must
// derive time from the supplied simulation clock.
func (w *World) Trace(user int) []time.Time {
	return emit(w.start, user)
}

// TraceTimes is a root whose helper chain reaches ambient randomness.
func (w *World) TraceTimes(user int) int {
	return jitter(user)
}

// TraceFromDay reaches a clock read two packages away.
func (w *World) TraceFromDay(day int) time.Time {
	return util.Stamp(day)
}

func emit(start time.Time, user int) []time.Time {
	if geo.Distance(float64(user), 2) > 1 { // clean pure helper
		return nil
	}
	obs.Note("emit")    // observe-only boundary: obs may read the clock
	stamp := nowStamp() // the injected bug: a helper reads the wall clock
	return []time.Time{start, stamp}
}

func nowStamp() time.Time {
	return time.Now() // want `reachable from deterministic entry`
}

func jitter(user int) int {
	return user + rand.Intn(3) // want `reachable from deterministic entry`
}

// coldPath is reachable from no other entry point, but as a function
// of a simulation package it is one itself.
func coldPath() time.Time {
	return time.Now() // want `reachable from deterministic entry`
}
