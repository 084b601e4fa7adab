package cg

// Go-statement shapes: a goroutine's first hop is an ordinary edge, so
// the analyzers that walk the graph follow code onto the goroutine.

// Runner exercises the spawned-callee varieties: a named method, a
// bound-method value, a func-typed field, and interface dispatch.
type Runner struct {
	stop chan struct{}
	cb   func() error
	feed Feed
}

// Start spawns the named method directly: one static edge.
func (r *Runner) Start() {
	go r.loop()
}

func (r *Runner) loop() {
	<-r.stop
}

// report is only ever run through value references (the bound-method
// spawn in Detach, the field wiring in NewRunner): without the
// address-taken fan-out it would look dead.
func (r *Runner) report() error { return nil }

// Detach passes a bound-method value to go: the call is through a
// plain func value, so resolution fans out dynamically over the
// address-taken functions of matching signature.
func (r *Runner) Detach() {
	f := r.report
	go f()
}

// Kick spawns through the func-typed struct field.
func (r *Runner) Kick() {
	go r.cb()
}

// Poll spawns an interface method: CHA fan-out.
func (r *Runner) Poll() {
	go r.feed.Next()
}

// NewRunner wires report into the callback field; the reference takes
// its address.
func NewRunner(f Feed) *Runner {
	r := &Runner{stop: make(chan struct{}), feed: f}
	r.cb = r.report
	return r
}

// Litter spawns a literal: the call and the reference inside the body
// are the goroutine's first hops, and the go statement's argument
// expression evaluates on the calling goroutine.
func Litter() {
	go func(n int) {
		Observed()
		f := Even
		_ = f
		_ = n
	}(clockInt())
}
