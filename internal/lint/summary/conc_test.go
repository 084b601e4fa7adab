package summary_test

import (
	"go/types"
	"strings"
	"testing"

	"locwatch/internal/lint/callgraph"
	"locwatch/internal/lint/loader"
	"locwatch/internal/lint/summary"
)

func loadConc(t *testing.T) *summary.Set {
	t.Helper()
	ld := loader.New(loader.SrcDir("testdata/src"))
	pkg, err := ld.Load("conc")
	if err != nil {
		t.Fatalf("loading conc: %v", err)
	}
	g := callgraph.Build([]*loader.Package{pkg})
	return summary.Compute(g)
}

// accessesOf returns fn's recorded accesses of the named field.
func accessesOf(t *testing.T, s *summary.Set, fn, field string) []summary.FieldAccess {
	t.Helper()
	var out []summary.FieldAccess
	for _, a := range facts(t, s, fn).Conc.Accesses {
		if a.Field.Name() == field {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s has no accesses of %s", fn, field)
	}
	return out
}

func hasVar(vs []*types.Var, name string) bool {
	for _, v := range vs {
		if v.Name() == name {
			return true
		}
	}
	return false
}

func TestConcLocksets(t *testing.T) {
	s := loadConc(t)
	for _, fn := range []string{"S).Locked", "S).DeferLocked"} {
		for _, a := range accessesOf(t, s, fn, "n") {
			if !hasVar(a.Held, "mu") {
				t.Errorf("%s: access of n does not must-hold mu (Held=%v)", fn, a.Held)
			}
		}
	}
	for _, a := range accessesOf(t, s, "S).Branchy", "n") {
		if hasVar(a.Held, "mu") {
			t.Errorf("Branchy: branch-locked access must not must-hold mu")
		}
		if !hasVar(a.MayHeld, "mu") {
			t.Errorf("Branchy: access must may-hold mu (MayHeld=%v)", a.MayHeld)
		}
	}
}

func TestConcChanFlow(t *testing.T) {
	s := loadConc(t)
	push := facts(t, s, "S).Push").Conc
	if len(push.ChanOps) != 1 || push.ChanOps[0].Kind != summary.ChanSend || push.ChanOps[0].Field.Name() != "ch" {
		t.Errorf("Push ChanOps = %+v, want one send on ch", push.ChanOps)
	}
	stop := facts(t, s, "S).Stop").Conc
	if len(stop.ChanOps) != 1 || stop.ChanOps[0].Kind != summary.ChanClose || stop.ChanOps[0].Field.Name() != "done" {
		t.Errorf("Stop ChanOps = %+v, want one close of done", stop.ChanOps)
	}
	// SendFields flows transitively through PushVia's call into Push.
	if via := facts(t, s, "S).PushVia").Conc; !hasVar(via.SendFields, "ch") {
		t.Errorf("PushVia SendFields = %v, want ch", via.SendFields)
	}
	// BadStop closes ch and then calls a sender: one ordering issue.
	bad := facts(t, s, "S).BadStop").Conc
	found := false
	for _, is := range bad.Issues {
		if strings.Contains(is.Msg, "after close") {
			found = true
		}
	}
	if !found {
		t.Errorf("BadStop issues = %+v, want a send-after-close", bad.Issues)
	}
}

// TestConcOwnership pins the base-object classification behind
// locksafe's false-positive gates: a never-published local is owned, a
// goroutine-captured one is not, and param-rooted accesses carry their
// slot.
func TestConcOwnership(t *testing.T) {
	s := loadConc(t)
	for _, a := range accessesOf(t, s, "conc.Fresh", "n") {
		if !a.Owned {
			t.Error("Fresh: access through an unpublished local must be owned")
		}
	}
	for _, a := range accessesOf(t, s, "conc.Escaped", "n") {
		if a.Owned {
			t.Error("Escaped: goroutine-captured local must not be owned")
		}
	}
	for _, a := range accessesOf(t, s, "conc.FromParam", "n") {
		if a.Owned || a.RootParam != 0 {
			t.Errorf("FromParam: access = Owned %v RootParam %d, want false/0", a.Owned, a.RootParam)
		}
	}
	// Method receivers are slot 0 too.
	for _, a := range accessesOf(t, s, "S).Locked", "n") {
		if a.RootParam != 0 {
			t.Errorf("Locked: receiver access RootParam = %d, want 0", a.RootParam)
		}
	}
	// Inside the go literal the access is marked InGo with a spawn pos.
	inGo := false
	for _, a := range accessesOf(t, s, "conc.Escaped", "n") {
		if a.InGo {
			inGo = true
			if !a.GoPos.IsValid() {
				t.Error("Escaped: InGo access lacks its spawn position")
			}
		}
	}
	if !inGo {
		t.Error("Escaped: no InGo access recorded for the literal body")
	}
}

// TestConcCallBits pins the callsite annotations the slot-sensitive
// spawn flood consumes: which passed values are aliasable, which are
// param-rooted, and which leak caller-unowned state.
func TestConcCallBits(t *testing.T) {
	s := loadConc(t)
	findCall := func(fn string) summary.ConcCall {
		t.Helper()
		for _, c := range facts(t, s, fn).Conc.Calls {
			return c
		}
		t.Fatalf("%s records no calls", fn)
		return summary.ConcCall{}
	}
	c := findCall("conc.Caller")
	if c.RecvRoot != 0 || !c.RecvAlias || c.RecvLeak {
		t.Errorf("Caller→Push receiver: root %d alias %v leak %v, want 0/true/false", c.RecvRoot, c.RecvAlias, c.RecvLeak)
	}
	if len(c.ArgRoots) != 1 || c.ArgRoots[0] != 1 || c.ArgAlias[0] || c.ArgLeak[0] {
		t.Errorf("Caller→Push arg: roots %v alias %v leak %v, want [1]/[false]/[false]", c.ArgRoots, c.ArgAlias, c.ArgLeak)
	}
	// Leaker's receiver is a goroutine-published local: not param-
	// rooted, but it leaks shared state.
	l := findCall("conc.Leaker")
	if l.RecvRoot >= 0 || !l.RecvLeak {
		t.Errorf("Leaker→Push receiver: root %d leak %v, want -1/true", l.RecvRoot, l.RecvLeak)
	}
	// Escape bit: Escaped's local is not a parameter, but Caller's
	// param stays out of goroutines entirely.
	if ego := facts(t, s, "conc.Caller").Conc.EscapeGo; ego != 0 {
		t.Errorf("Caller EscapeGo = %b, want 0", ego)
	}
}

// TestConcBlocking pins the blocking facts blockhold reads: direct and
// transitive may-block with its witness hop, and ctx-guarded selects
// that do not block.
func TestConcBlocking(t *testing.T) {
	s := loadConc(t)
	w := facts(t, s, "conc.Wait").Conc
	if len(w.Blocking) == 0 || !w.MayBlock {
		t.Errorf("Wait: Blocking=%v MayBlock=%v, want a site and true", w.Blocking, w.MayBlock)
	}
	cw := facts(t, s, "conc.CallsWait").Conc
	if !cw.MayBlock {
		t.Error("CallsWait must inherit may-block from Wait")
	}
	if len(cw.BlockVia) == 0 || !strings.Contains(cw.BlockVia[0].Name, "Wait") {
		t.Errorf("CallsWait BlockVia = %+v, want a hop through Wait", cw.BlockVia)
	}
	g := facts(t, s, "conc.Good").Conc
	if len(g.Blocking) != 0 {
		t.Errorf("Good Blocking = %v; a select with a ctx.Done case is not a block site", g.Blocking)
	}
	sleepy := facts(t, s, "conc.Sleepy").Conc
	if len(sleepy.Blocking) == 0 || !strings.Contains(sleepy.Blocking[0].What, "Sleep") {
		t.Errorf("Sleepy Blocking = %+v, want a time.Sleep site", sleepy.Blocking)
	}
}

// TestConcLockOrder pins the deadlock-tier facts that remain: the
// locks held at each blocking site, read-locked ones included, and a
// goroutine-side site that does not make its spawner block.
func TestConcLockOrder(t *testing.T) {
	s := loadConc(t)
	sl := facts(t, s, "LQ).SendLocked").Conc
	if len(sl.Blocking) != 1 || !hasVar(sl.Blocking[0].Held, "mu") {
		t.Errorf("SendLocked blocking = %+v, want one site holding mu", sl.Blocking)
	}
	sr := facts(t, s, "LQ).SendRead").Conc
	if len(sr.Blocking) != 1 || !hasVar(sr.Blocking[0].ReadHeld, "rw") {
		t.Errorf("SendRead blocking = %+v, want one site read-holding rw", sr.Blocking)
	}
	gr := facts(t, s, "LQ).GoRecv").Conc
	if gr.MayBlock {
		t.Error("GoRecv must not be may-block: its only site is goroutine-side")
	}
	if len(gr.Blocking) != 1 || !gr.Blocking[0].InGo {
		t.Errorf("GoRecv blocking = %+v, want one InGo site", gr.Blocking)
	}
}
