// Package cg is the callgraph/summary unit-test fixture: interface
// dispatch, mutual recursion, an observe-only boundary, and the
// may-nil/constructor shapes the summary pass classifies.
package cg

import (
	"errors"
	"time"

	"cg/obs"
)

type Feed interface {
	Next() int
}

type A struct{ n int }

func (a A) Next() int { return a.n }

type B struct{}

func (*B) Next() int { return clockInt() }

// Drive calls Next through the interface: CHA must add dynamic edges
// to both implementations.
func Drive(fs []Feed) int {
	total := 0
	for _, f := range fs {
		total += f.Next()
	}
	return total
}

func clockInt() int {
	return int(time.Now().Unix())
}

// Even and Odd are one SCC.
func Even(n int) bool {
	if n == 0 {
		return true
	}
	return Odd(n - 1)
}

func Odd(n int) bool {
	if n == 0 {
		return false
	}
	return Even(n - 1)
}

// Observed calls into the observe-only package: obs reads the clock
// but the fact must not taint Observed.
func Observed() {
	obs.Note()
}

// MaybeNil has a nil-returning path.
func MaybeNil(ok bool) *A {
	if !ok {
		return nil
	}
	return &A{}
}

// Wraps forwards MaybeNil's may-nil result.
func Wraps(ok bool) *A {
	return MaybeNil(ok)
}

// Fresh never returns nil.
func Fresh() *A {
	return &A{}
}

// NewChecked returns nil only alongside a non-nil error.
func NewChecked(ok bool) (*A, error) {
	if !ok {
		return nil, errors.New("cg: no")
	}
	return &A{}, nil
}

// Uncorrelated returns a nil pointer with a nil error — the
// correlation contract does not hold.
func Uncorrelated() (*A, error) {
	return nil, nil
}

// setN mutates its receiver; bump does so transitively.
func (a *A) setN(n int) { a.n = n }

func (a *A) bump() { a.setN(a.n + 1) }

// Register passes Even as a value: the reference edge keeps it
// reachable from Register even though it is never called here.
func Register() func(int) bool {
	return Even
}

// Apply calls through a plain function-typed parameter: resolution
// fans out to every address-taken function whose value signature
// matches the call, so Even (referenced by Register) gets an edge
// while Odd (never address-taken) does not.
func Apply(f func(int) bool, n int) bool {
	return f(n)
}
