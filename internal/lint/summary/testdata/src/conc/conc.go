// Package conc is the concurrency-summary unit-test fixture: lockset
// shapes (must, may, deferred), channel-field ops and their transitive
// flow, goroutine escapes, ownership classification, and blocking /
// cancellation facts.
package conc

import (
	"context"
	"sync"
	"time"
)

// S carries one lock, one data field and two channels.
type S struct {
	mu   sync.Mutex
	n    int
	ch   chan int
	done chan struct{}
}

// Locked accesses n under a paired Lock/Unlock: must-held.
func (s *S) Locked() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// DeferLocked holds the lock through a deferred unlock.
func (s *S) DeferLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Branchy locks on one path only: the access's must-set is empty but
// the may-set still names mu.
func (s *S) Branchy(b bool) {
	if b {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	s.n++
}

// Push and Stop are the owner's channel ops.
func (s *S) Push(v int) { s.ch <- v }

func (s *S) Stop() { close(s.done) }

// PushVia sends transitively: its SendFields must include ch.
func (s *S) PushVia(v int) { s.Push(v) }

// BadStop closes ch and then calls a sender: the ordering issue is
// visible one call away.
func (s *S) BadStop() {
	close(s.ch)
	s.Push(1)
}

// Fresh writes through a local it never publishes: owned.
func Fresh() int {
	s := &S{}
	s.n = 1
	return s.n
}

// Escaped hands the local to a goroutine first: both the literal's
// access and the trailing one are on shared state.
func Escaped() {
	s := &S{}
	go func() {
		s.n = 2
	}()
	s.n = 3
}

// FromParam's access roots in parameter slot 0.
func FromParam(s *S) {
	s.n = 4
}

// Caller pins the callsite annotations: an aliasable param-rooted
// receiver, a by-value scalar argument.
func Caller(s *S, v int) {
	s.Push(v)
}

// Leaker calls through a published local: the receiver leaks.
func Leaker() {
	s := &S{}
	go func() {
		s.n = 5
	}()
	s.Push(6)
}

// LQ pins the blocking-site lockset capture.
type LQ struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
}

// SendLocked blocks on a send with mu held.
func (q *LQ) SendLocked(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ch <- v
}

// SendRead blocks on a send with the read half held.
func (q *LQ) SendRead(v int) {
	q.rw.RLock()
	defer q.rw.RUnlock()
	q.ch <- v
}

// GoRecv blocks inside a spawned goroutine: the site is InGo and must
// not make GoRecv itself may-block.
func (q *LQ) GoRecv() {
	go func() {
		<-q.ch
	}()
}

// Wait is a bare blocking receive.
func Wait(ch chan int) int { return <-ch }

// CallsWait reaches Wait without forwarding its ctx: may-block with a
// witness hop.
func CallsWait(ctx context.Context, ch chan int) int {
	return Wait(ch)
}

// Good selects on ctx.Done alongside the receive: cancellation-aware
// and not a blocking site.
func Good(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// Sleepy blocks in time.Sleep.
func Sleepy() { time.Sleep(time.Millisecond) }
