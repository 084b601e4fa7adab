// Fixtures for the nilfacade analyzer: dereferences of facade
// pointers reachable on a may-nil path are flagged; guarded and
// constructor-checked uses stay silent.
package nilfacade

import "nilfacade/core"

// zeroDeclThenUse dereferences a zero-valued pointer on the path where
// the conditional assignment did not run.
func zeroDeclThenUse(have bool) int {
	var p *core.Profile
	if have {
		p = &core.Profile{Visits: 3}
	}
	return p.Visits // want `p may be nil at this field or method selection`
}

// nilAssignThenDeref resets the pointer and uses it anyway.
func nilAssignThenDeref(p *core.Profile) int {
	p = nil
	return p.Anchor() // want `p may be nil at this field or method selection`
}

// discardedError drops the constructor's error. Calls are assumed to
// return non-nil pointers: this shape is errflow's to report.
func discardedError(p *core.Profile) {
	d, _ := core.NewDetector(p)
	d.Feed(1)
}

// derefInNilArm uses the pointer inside the arm that just proved it
// nil.
func derefInNilArm(a *core.Adversary) int {
	if a == nil {
		return a.N // want `a may be nil at this field or method selection`
	}
	return a.N
}

// invertedGuard looks a profile up and uses it exactly when the lookup
// missed.
func invertedGuard(refs map[string]*core.Profile, user string) int {
	if ref := refs[user]; ref == nil {
		return ref.Anchor() // want `ref may be nil at this field or method selection`
	}
	return 0
}

// starDeref covers explicit pointer indirection.
func starDeref() core.Config {
	var c *core.Config
	return *c // want `c may be nil at this pointer indirection`
}

// guardedEarlyReturn is the idiomatic guard: the false edge of the
// comparison clears the pointer for the rest of the function.
func guardedEarlyReturn(p *core.Profile) int {
	if p == nil {
		return 0
	}
	return p.Visits
}

// checkedConstructor consumes the error before using the pointer.
func checkedConstructor(p *core.Profile) int {
	d, err := core.NewDetector(p)
	if err != nil {
		return 0
	}
	d.Feed(2)
	return 1
}

// shortCircuitGuard refines along the && edge.
func shortCircuitGuard(p *core.Profile) bool {
	return p != nil && p.Visits > 0
}

// guardedPanic: a guard that panics also clears the path.
func guardedPanic(c *core.Config) int {
	if c == nil {
		panic("nil config")
	}
	return c.Users
}

// lazyInit assigns on the nil arm before the shared dereference —
// every path reaching the use is non-nil.
func lazyInit(p *core.Profile) int {
	if p == nil {
		p = &core.Profile{Visits: 1}
	}
	return p.Visits
}
