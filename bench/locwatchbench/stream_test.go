package main

import (
	"math"
	"testing"
	"time"
)

// queueModel fakes a server that serves one request at a time in
// service: a probe at rate r replays a seeded schedule through a FIFO
// queue and judges it the way the ladder judges a real probe.
func queueModel(service time.Duration, probes *int) func(r float64) (bool, error) {
	return func(r float64) (bool, error) {
		*probes++
		var ss []sample
		var free time.Duration
		for _, ev := range schedule(int64(*probes), r, probeSpan, 50) {
			s := sample{event: ev, ok: true}
			s.sent = max(ev.due, free)
			s.done = s.sent + service
			free = s.done
			ss = append(ss, s)
		}
		ok, _ := passes(ss, r)
		return ok, nil
	}
}

// TestSustainedRateOnQueueModel runs the ladder and its bisection
// against fake servers of known capacity.
func TestSustainedRateOnQueueModel(t *testing.T) {
	for _, capacity := range []float64{4000, 1000} {
		probes := 0
		got, err := sustainedRate(1500, queueModel(time.Duration(float64(time.Second)/capacity), &probes))
		if err != nil {
			t.Fatal(err)
		}
		if got > capacity || got < 0.8*capacity {
			t.Errorf("capacity %v/s: sustained %v/s", capacity, got)
		}
		if probes > ladderSteps+bisections+1 {
			t.Errorf("capacity %v/s: %d probes", capacity, probes)
		}
	}
}

func TestSustainedRateBounds(t *testing.T) {
	got, err := sustainedRate(100, func(float64) (bool, error) { return true, nil })
	if want := 100 * math.Pow(ladderStep, ladderSteps); err != nil || math.Abs(got-want) > 1e-6 {
		t.Errorf("every probe passing: %v, %v; want the ladder's top %v", got, err, want)
	}
	if _, err := sustainedRate(100, func(float64) (bool, error) { return false, nil }); err == nil {
		t.Error("every probe failing: no error")
	}
	// A pass/fail boundary: bisection lands within an eighth of the
	// bracket the ladder found.
	got, err = sustainedRate(100, func(r float64) (bool, error) { return r <= 300, nil })
	if err != nil || got > 300 || got < 300-(100*math.Pow(ladderStep, 5)-100*math.Pow(ladderStep, 4))/8 {
		t.Errorf("boundary at 300/s: %v, %v", got, err)
	}
}
