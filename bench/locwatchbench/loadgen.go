package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"locwatch/internal/mobility"
	"locwatch/internal/obs"
	"locwatch/internal/stream"
	"locwatch/internal/trace"
)

const (
	conns          = 2  // keep-alive connections the load uses
	batchFixes     = 64 // fixes per ingest request
	riskEvery      = 16 // one event in riskEvery is a risk query
	requestTimeout = 10 * time.Second
)

// event is one request of an open-loop schedule.
type event struct {
	due  time.Duration // since the schedule's start
	user int
	risk bool
}

func (e event) kind() string {
	if e.risk {
		return "risk"
	}
	return "ingest"
}

// schedule draws the Poisson arrivals of [0, span) at rate events per
// second. Each event goes to a user drawn uniformly at random and is a
// risk query with probability 1/riskEvery, except that a user's first
// event is always an ingest: a risk query for a user the server has
// never seen is answered 404, which is not the load being measured.
func schedule(seed int64, rate float64, span time.Duration, users int) []event {
	rng := rand.New(rand.NewSource(seed))
	seen := make([]bool, users)
	var evs []event
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return evs
		}
		u := rng.Intn(users)
		risk := rng.Intn(riskEvery) == 0 && seen[u]
		seen[u] = true
		evs = append(evs, event{due: due, user: u, risk: risk})
	}
}

// connOf pins a user to one connection, so the user's requests are
// sent one after another in schedule order and its fixes reach the
// server in time order.
func connOf(user int) int { return user % conns }

// sample is what the generator saw of one event.
type sample struct {
	event
	sent, done time.Duration // since the schedule's start
	lag        time.Duration // how late the generator woke for an event it was idle for
	connWait   time.Duration // how long the event waited for its busy connection
	ok         bool          // 2xx and a well-formed body
	freshness  time.Duration // risk only: done minus the due time of the newest covered fix
}

func (s sample) latency() time.Duration { return s.done - s.due }

// loopSource replays one user's native-rate trace forever, shifting
// each lap by the simulated period so time never runs backwards. The
// load and the oracle both read fixes through it, so they agree on
// what the n-th fix of a user is.
type loopSource struct {
	w      *mobility.World
	user   int
	period time.Duration
	lap    int
	n      int // fixes emitted in the current lap
	src    trace.Source
}

func newLoopSource(w *mobility.World, user int) *loopSource {
	return &loopSource{w: w, user: user, period: time.Duration(w.Config().Days) * 24 * time.Hour}
}

func (s *loopSource) Next() (trace.Point, error) {
	for {
		if s.src == nil {
			src, err := s.w.Trace(s.user, 0)
			if err != nil {
				return trace.Point{}, err
			}
			s.src, s.n = src, 0
		}
		p, err := s.src.Next()
		if errors.Is(err, io.EOF) {
			if s.n == 0 {
				return trace.Point{}, fmt.Errorf("user %d: empty trace", s.user)
			}
			s.src = nil
			s.lap++
			continue
		}
		if err != nil {
			return trace.Point{}, err
		}
		s.n++
		p.T = p.T.Add(time.Duration(s.lap) * s.period)
		return p, nil
	}
}

// userFeed is the client side of one user. It is touched only by the
// goroutine of the user's connection while a phase runs.
type userFeed struct {
	id  string
	src *loopSource
	// acked[i] is the user's accepted-fix total after its i-th
	// acknowledged ingest, ackedDue[i] that ingest's due time.
	acked    []int
	ackedDue []time.Time
}

func (f *userFeed) accepted() int {
	if len(f.acked) == 0 {
		return 0
	}
	return f.acked[len(f.acked)-1]
}

// body encodes the user's next batch of fixes.
func (f *userFeed) body() ([]byte, error) {
	req := stream.IngestRequest{Fixes: make([]stream.Fix, batchFixes)}
	for i := range req.Fixes {
		p, err := f.src.Next()
		if err != nil {
			return nil, err
		}
		req.Fixes[i] = stream.Fix{Lat: p.Pos.Lat, Lon: p.Pos.Lon, T: p.T}
	}
	return json.Marshal(req)
}

// generator drives one server: conns keep-alive connections, one
// goroutine each, sending the events of the users pinned to it.
type generator struct {
	base    string
	clients [conns]*http.Client
	users   []*userFeed
}

// spans asks a phase for one span per request due at or after from;
// the zero value records none.
type spans struct {
	tracer *obs.Tracer
	from   time.Duration
}

func newGenerator(base string, w *mobility.World) *generator {
	g := &generator{base: base}
	for i := range g.clients {
		g.clients[i] = &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	for u := 0; u < w.NumUsers(); u++ {
		g.users = append(g.users, &userFeed{id: stream.UserID(u), src: newLoopSource(w, u)})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run sends evs on their schedule, which starts at start, and returns
// one sample per event in schedule order. The schedule never waits for
// the server: an event whose connection is still busy when it falls
// due is sent as soon as the connection frees up, and its latency
// counts from when it was due. A request that fails is recorded, not
// returned as an error; an error means the run itself broke (the
// context ended, or the server answered something no correct server
// would).
func (g *generator) run(ctx context.Context, evs []event, start time.Time, tr spans) ([]sample, error) {
	var perConn [conns][]int
	for i, ev := range evs {
		c := connOf(ev.user)
		perConn[c] = append(perConn[c], i)
	}
	out := make([]sample, len(evs))
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := range perConn {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = g.runConn(ctx, g.clients[c], evs, perConn[c], start, tr, out)
		}(c)
	}
	//lint:ignore ctxflow each connection goroutine returns as soon as ctx ends
	wg.Wait()
	return out, errors.Join(errs...)
}

// runConn sends one connection's events in order, writing each sample
// to out at the event's index; the index sets of the connections are
// disjoint.
func (g *generator) runConn(ctx context.Context, c *http.Client, evs []event, idx []int, start time.Time, tr spans, out []sample) error {
	for _, i := range idx {
		ev := evs[i]
		f := g.users[ev.user]
		var body []byte
		if !ev.risk {
			b, err := f.body()
			if err != nil {
				return err
			}
			body = b
		}
		s := sample{event: ev}
		due := start.Add(ev.due)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
			s.sent = time.Since(start)
			s.lag = s.sent - ev.due
		} else {
			s.sent = time.Since(start)
			s.connWait = s.sent - ev.due
		}
		var sp *obs.Span
		if tr.tracer != nil && ev.due >= tr.from {
			sp = tr.tracer.Start(ev.kind())
			sp.SetAttr("user", f.id)
			sp.SetAttr("due_ns", strconv.FormatInt(int64(ev.due), 10))
			sp.SetAttr("sent_ns", strconv.FormatInt(int64(s.sent), 10))
		}
		var err error
		if ev.risk {
			var r stream.Risk
			r, s.ok, err = g.risk(ctx, c, f)
			s.done = time.Since(start)
			if err == nil && s.ok {
				s.freshness, err = f.freshness(r.Fixes, start.Add(s.done))
			}
		} else {
			s.ok, err = g.ingest(ctx, c, f, body, due)
			s.done = time.Since(start)
		}
		sp.End()
		if err != nil {
			return err
		}
		out[i] = s
	}
	return nil
}

// freshness is how old, at now, the newest fix a snapshot covering
// fixes fixes was: the time since its ingest was due. Snapshots are
// taken between ingest batches, so fixes must be one of the user's
// acknowledged totals.
func (f *userFeed) freshness(fixes int, now time.Time) (time.Duration, error) {
	i := sort.SearchInts(f.acked, fixes)
	if i == len(f.acked) || f.acked[i] != fixes {
		return 0, fmt.Errorf("user %s: risk snapshot covers %d fixes, not an acknowledged batch boundary", f.id, fixes)
	}
	return now.Sub(f.ackedDue[i]), nil
}

func (g *generator) ingest(ctx context.Context, c *http.Client, f *userFeed, body []byte, due time.Time) (bool, error) {
	var ack stream.IngestResponse
	ok, err := g.do(ctx, c, http.MethodPost, "/v1/users/"+f.id+"/fixes", body, http.StatusAccepted, &ack)
	if !ok || err != nil {
		return false, err
	}
	if ack.Accepted != batchFixes {
		return false, fmt.Errorf("user %s: ingest acknowledged %d of %d fixes", f.id, ack.Accepted, batchFixes)
	}
	f.acked = append(f.acked, f.accepted()+ack.Accepted)
	f.ackedDue = append(f.ackedDue, due)
	return true, nil
}

func (g *generator) risk(ctx context.Context, c *http.Client, f *userFeed) (stream.Risk, bool, error) {
	var r stream.Risk
	ok, err := g.do(ctx, c, http.MethodGet, "/v1/users/"+f.id+"/risk", nil, http.StatusOK, &r)
	if ok && err == nil && r.UserID != f.id {
		err = fmt.Errorf("risk for user %s answered for %q", f.id, r.UserID)
	}
	return r, ok, err
}

// do sends one request. ok reports a response with the wanted status
// whose body decoded into v; a transport error or another status is
// !ok with a nil error, since a failed request is a measurement. The
// error is for a wanted status with a body that does not decode, and
// for the run's context ending.
func (g *generator) do(ctx context.Context, c *http.Client, method, path string, body []byte, want int, v any) (bool, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, g.base+path, rd)
	if err != nil {
		return false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return false, ctx.Err()
	}
	defer func() { _ = resp.Body.Close() }() // read to the end below
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != want {
		return false, ctx.Err()
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("%s %s: decoding %d response: %w", method, path, resp.StatusCode, err)
	}
	return true, nil
}

// backlogAt is the generator backlog at offset t: events due by t and
// not yet sent.
func backlogAt(ss []sample, t time.Duration) int {
	n := 0
	for _, s := range ss {
		if s.due <= t && s.sent > t {
			n++
		}
	}
	return n
}

// maxBacklog is the largest backlog any event found when it fell due.
// Events are due in schedule order; a sweep over sorted send times
// counts how many earlier events were still unsent at each due time.
func maxBacklog(ss []sample) int {
	sent := make([]time.Duration, len(ss))
	for i, s := range ss {
		sent[i] = s.sent
	}
	sort.Slice(sent, func(i, j int) bool { return sent[i] < sent[j] })
	best, j := 0, 0
	for i, s := range ss {
		for j < len(sent) && sent[j] < s.due {
			j++
		}
		// i events were due before this one. The j events sent before
		// it fell due were all due earlier (no event is sent before it
		// is due), so the other i-j are still waiting.
		if b := i - j; b > best {
			best = b
		}
	}
	return best
}
