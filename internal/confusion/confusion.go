// Package confusion implements Hoh et al.'s time-to-confusion metric:
// how long a tracking adversary can follow one user's released
// location stream before the trajectory becomes confusable with
// another user's. The paper's related work uses it as the main
// alternative to entropy-based anonymity; here it runs over the same
// time-aligned population snapshots as the k-anonymity baselines, so
// every defense can be scored on tracking resistance too.
package confusion

import (
	"fmt"
	"time"

	"locwatch/internal/anonymize"
	"locwatch/internal/geo"
)

// Params configures the tracking adversary.
type Params struct {
	// FollowRadius is how far a candidate may be from the tracked
	// user's current release and still be confusable with them at the
	// next step. Defaults to 250 m.
	FollowRadius float64
	// MinCandidates is how many *other* users must be inside the
	// follow radius for a confusion event (1 = any second candidate).
	MinCandidates int
}

// DefaultParams returns the conventional operating point.
func DefaultParams() Params {
	return Params{FollowRadius: 250, MinCandidates: 1}
}

func (p Params) withDefaults() (Params, error) {
	if p.FollowRadius == 0 {
		p.FollowRadius = 250
	}
	if p.MinCandidates == 0 {
		p.MinCandidates = 1
	}
	if p.FollowRadius < 0 {
		return p, fmt.Errorf("confusion: negative follow radius %v", p.FollowRadius)
	}
	if p.MinCandidates < 1 {
		return p, fmt.Errorf("confusion: min candidates %d below 1", p.MinCandidates)
	}
	return p, nil
}

// Result summarizes one user's trackability.
type Result struct {
	User int
	// Segments holds the uninterrupted tracking durations: the time
	// from (re)acquisition to the next confusion event.
	Segments []time.Duration
	// Confusions counts confusion events.
	Confusions int
	// Tracked is the total time the user was observable.
	Tracked time.Duration
}

// MeanTimeToConfusion returns the mean tracking segment, or the whole
// tracked span when the user was never confused (the worst case for
// privacy).
func (r Result) MeanTimeToConfusion() time.Duration {
	if len(r.Segments) == 0 {
		return r.Tracked
	}
	var sum time.Duration
	for _, s := range r.Segments {
		sum += s
	}
	return sum / time.Duration(len(r.Segments))
}

// TimeToConfusion runs the tracking adversary against user who over
// the aligned population: at every tick the adversary knows which
// release belongs to the user it is following as long as no other
// user's release falls within FollowRadius; when MinCandidates or more
// others do, the track is confused and tracking restarts.
func TimeToConfusion(a *anonymize.AlignedPositions, who int, params Params) (Result, error) {
	p, err := params.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if who < 0 || who >= len(a.Pos) {
		return Result{}, fmt.Errorf("confusion: no user %d", who)
	}
	res := Result{User: who}
	segStart := -1
	for tick := 0; tick < a.Ticks(); tick++ {
		if !a.Fresh[who][tick] {
			// No live release this tick: the track is lost without a
			// confusion event (stale carry-forward positions are only
			// used for the *other* users, who can still be confused
			// with the target on their last known whereabouts).
			if segStart >= 0 {
				segStart = -1
			}
			continue
		}
		res.Tracked += a.Interval
		if segStart < 0 {
			segStart = tick
		}
		self := a.Pos[who][tick]
		near := 0
		for u := range a.Pos {
			if u == who || !a.Known[u][tick] {
				continue
			}
			if geo.Distance(self, a.Pos[u][tick]) <= p.FollowRadius {
				near++
				if near >= p.MinCandidates {
					break
				}
			}
		}
		if near >= p.MinCandidates {
			res.Confusions++
			res.Segments = append(res.Segments, time.Duration(tick-segStart)*a.Interval)
			segStart = tick // reacquired immediately after confusion
		}
	}
	return res, nil
}

// Population runs TimeToConfusion for every user and returns the
// results indexed by user.
func Population(a *anonymize.AlignedPositions, params Params) ([]Result, error) {
	out := make([]Result, len(a.Pos))
	for who := range a.Pos {
		r, err := TimeToConfusion(a, who, params)
		if err != nil {
			return nil, err
		}
		out[who] = r
	}
	return out, nil
}
