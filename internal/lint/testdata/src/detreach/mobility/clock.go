package mobility

import "time"

// step reads the wall clock. Nothing calls it, but every function of a
// deterministic simulation package is an entry point in its own right.
func step(prev time.Time) time.Time {
	return time.Now() // want `reachable from deterministic entry`
}

func advance(prev time.Time, dt time.Duration) time.Time {
	return prev.Add(dt) // injected clock arithmetic: not flagged
}
