package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"locwatch/internal/mobility"
	"locwatch/internal/stream"
)

func TestScheduleIsSeeded(t *testing.T) {
	const users, rate, span = 50, 2000.0, 2 * time.Second
	a := schedule(7, rate, span, users)
	if b := schedule(7, rate, span, users); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if c := schedule(8, rate, span, users); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same schedule")
	}
	if n := float64(len(a)); n < 0.9*rate*span.Seconds() || n > 1.1*rate*span.Seconds() {
		t.Errorf("%v events in %v at %v/s", n, span, rate)
	}
	seen := make([]bool, users)
	risks := 0
	for i, ev := range a {
		if i > 0 && ev.due < a[i-1].due {
			t.Fatalf("event %d due before its predecessor", i)
		}
		if ev.due >= span || ev.user < 0 || ev.user >= users {
			t.Fatalf("event %d out of range: %+v", i, ev)
		}
		if ev.risk {
			risks++
			if !seen[ev.user] {
				t.Fatalf("event %d queries user %d before any ingest", i, ev.user)
			}
		}
		seen[ev.user] = true
	}
	if share := float64(risks) / float64(len(a)); share < 0.5/riskEvery || share > 1.5/riskEvery {
		t.Errorf("risk share %.3f, want about 1/%d", share, riskEvery)
	}
}

// fakeServer answers like locwatchd and checks that every user's fixes
// arrive in time order, and over how many connections they come.
type fakeServer struct {
	mu       sync.Mutex
	last     map[string]time.Time
	accepted map[string]int
	conns    int
	bad      []string
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(r.URL.Path, "/") // "", "v1", "users", id, kind
	id := parts[3]
	f.mu.Lock()
	defer f.mu.Unlock()
	if parts[4] == "risk" {
		_ = json.NewEncoder(w).Encode(stream.Risk{UserID: id, Fixes: f.accepted[id]}) // a test double
		return
	}
	var req stream.IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		f.bad = append(f.bad, err.Error())
	}
	for _, fx := range req.Fixes {
		if fx.T.Before(f.last[id]) {
			f.bad = append(f.bad, id+": fix out of order")
		}
		f.last[id] = fx.T
	}
	f.accepted[id] += len(req.Fixes)
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(stream.IngestResponse{Accepted: len(req.Fixes)}) // a test double
}

// TestPinningKeepsUserOrder runs a short open-loop schedule against a
// fake server: each user's fixes must arrive in time order over at
// most conns connections, and the generator's acknowledged totals must
// match what the server took.
func TestPinningKeepsUserOrder(t *testing.T) {
	mc := mobility.DefaultConfig()
	mc.Users, mc.Days = 6, 3
	w, err := mobility.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{last: map[string]time.Time{}, accepted: map[string]int{}}
	srv := httptest.NewUnstartedServer(fs)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			fs.mu.Lock()
			fs.conns++
			fs.mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()

	g := newGenerator(srv.URL, w)
	defer g.close()
	evs := schedule(3, 3000, 300*time.Millisecond, mc.Users)
	ss, err := g.run(context.Background(), evs, time.Now(), spans{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ss {
		if !s.ok || s.sent < s.due || s.done < s.sent {
			t.Fatalf("sample %d: %+v", i, s)
		}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.bad) > 0 {
		t.Fatalf("server saw %d problems, first: %s", len(fs.bad), fs.bad[0])
	}
	if fs.conns > conns {
		t.Errorf("load used %d connections, want at most %d", fs.conns, conns)
	}
	for u, f := range g.users {
		if got := fs.accepted[f.id]; got != f.accepted() {
			t.Errorf("user %d: server took %d fixes, generator counted %d", u, got, f.accepted())
		}
	}
}

func TestMaxBacklog(t *testing.T) {
	ms := time.Millisecond
	ss := []sample{
		{event: event{due: 0}, sent: 0},
		{event: event{due: 1 * ms}, sent: 5 * ms},
		{event: event{due: 2 * ms}, sent: 6 * ms},
		{event: event{due: 3 * ms}, sent: 7 * ms},
		{event: event{due: 8 * ms}, sent: 8 * ms},
	}
	if got := maxBacklog(ss); got != 2 {
		t.Errorf("max backlog %d, want 2 (two events still waiting when the fourth fell due)", got)
	}
	if got := backlogAt(ss, 4*ms); got != 3 {
		t.Errorf("backlog at 4ms %d, want 3", got)
	}
}
