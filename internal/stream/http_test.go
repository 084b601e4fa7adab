package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"locwatch/internal/trace"
)

func testServer(t *testing.T, cfg Config) (*Engine, *httptest.Server) {
	t.Helper()
	e := mustEngine(t, cfg)
	ts := httptest.NewServer(NewMux(e, nil, nil))
	t.Cleanup(ts.Close)
	return e, ts
}

func fixesBody(pts []trace.Point) *bytes.Buffer {
	req := IngestRequest{Fixes: make([]Fix, len(pts))}
	for i, p := range pts {
		req.Fixes[i] = Fix{Lat: p.Pos.Lat, Lon: p.Pos.Lon, T: p.T}
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(req) //nolint:errcheck // in-memory
	return &buf
}

func postJSON(t *testing.T, url string, body io.Reader) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestHTTPIngestAndRisk(t *testing.T) {
	e, ts := testServer(t, Config{})
	pts := commute(0)
	resp := postJSON(t, ts.URL+"/v1/users/alice/fixes", fixesBody(pts))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var ack IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != len(pts) {
		t.Fatalf("accepted %d, want %d", ack.Accepted, len(pts))
	}
	if err := e.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	rr, err := http.Get(ts.URL + "/v1/users/alice/risk")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("risk status %d", rr.StatusCode)
	}
	if ct := rr.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var risk Risk
	if err := json.NewDecoder(rr.Body).Decode(&risk); err != nil {
		t.Fatal(err)
	}
	if risk.UserID != "alice" || risk.Fixes != len(pts) || risk.Visits == 0 {
		t.Fatalf("risk = %+v", risk)
	}
}

func TestHTTPMalformedJSON400(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, body := range []string{
		"{", "[]", `{"fixes": "nope"}`, "",
		// Well-formed JSON, out-of-range coordinates: same 400.
		`{"fixes":[{"lat":999,"lon":0,"t":"2026-03-02T08:00:00Z"}]}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/users/alice/fixes", strings.NewReader(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
			t.Fatalf("body %q: error envelope %+v, %v", body, eb, err)
		}
	}
}

func TestHTTPUnknownUser404(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/users/nobody/risk")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("risk status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/users/nobody", nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	if dr.StatusCode != http.StatusNotFound {
		t.Fatalf("evict status %d, want 404", dr.StatusCode)
	}
}

func TestHTTPOversizedBatch413(t *testing.T) {
	_, ts := testServer(t, Config{MaxBatch: 4})
	// More fixes than MaxBatch but a small body: rejected by count.
	resp := postJSON(t, ts.URL+"/v1/users/alice/fixes", fixesBody(commute(0)[:5]))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("count path: status %d, want 413", resp.StatusCode)
	}
	// A giant body: rejected by MaxBytesReader before full decode.
	big := fmt.Sprintf(`{"fixes":[%s]}`, strings.Repeat(`{"lat":1,"lon":2,"t":"2026-03-02T08:00:00Z"},`, 4096))
	resp = postJSON(t, ts.URL+"/v1/users/alice/fixes", strings.NewReader(big[:len(big)-3]+"]}"))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("bytes path: status %d, want 413", resp.StatusCode)
	}
}

func TestHTTPEvictAndUsers(t *testing.T) {
	_, ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/v1/users/alice/fixes", fixesBody(commute(0)[:8]))
	postJSON(t, ts.URL+"/v1/users/bob/fixes", fixesBody(commute(50)[:8]))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/users/alice", nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusNoContent {
		t.Fatalf("evict status %d, want 204", dr.StatusCode)
	}
	ur, err := http.Get(ts.URL + "/v1/users")
	if err != nil {
		t.Fatal(err)
	}
	defer ur.Body.Close()
	var users struct {
		Users []string `json:"users"`
	}
	if err := json.NewDecoder(ur.Body).Decode(&users); err != nil {
		t.Fatal(err)
	}
	// Eviction parks, it does not forget: both users still listed.
	if len(users.Users) != 2 || users.Users[0] != "alice" || users.Users[1] != "bob" {
		t.Fatalf("users = %v", users.Users)
	}
}

func TestHTTPPoisonedUser409(t *testing.T) {
	e, ts := testServer(t, Config{})
	pts := preciseCommute()
	postJSON(t, ts.URL+"/v1/users/alice/fixes", fixesBody(pts[10:12]))
	postJSON(t, ts.URL+"/v1/users/alice/fixes", fixesBody(pts[:2])) // rewind
	if err := e.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/users/alice/risk")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	// The served error must not carry a fix the user sent.
	assertNoLeak(t, "409 body", []byte(eb.Error), positions(pts))
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestGracefulShutdownDrainsInflightIngest pins the Server's drain
// order: an ingest whose body is still streaming when Shutdown begins
// must complete with 202 (HTTP drain), and its fixes must reach shard
// state before the engine closes (engine drain second).
func TestGracefulShutdownDrainsInflightIngest(t *testing.T) {
	e := mustEngine(t, Config{})
	srv := NewServer("127.0.0.1:0", e, nil, nil)
	ln, err := net.Listen("tcp", srv.HTTP.Addr)
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.HTTP.Serve(ln) }()

	pr, pw := io.Pipe()
	reqDone := make(chan *http.Response, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, "http://"+ln.Addr().String()+"/v1/users/alice/fixes", pr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			reqDone <- nil
			return
		}
		reqDone <- resp
	}()

	body := fixesBody(commute(0)[:6]).Bytes()
	half := len(body) / 2
	if _, err := pw.Write(body[:half]); err != nil {
		t.Fatal(err)
	}

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()

	// Shutdown is now waiting on the in-flight request; finish it.
	time.Sleep(20 * time.Millisecond)
	if _, err := pw.Write(body[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	resp := <-reqDone
	if resp == nil {
		t.Fatal("in-flight request failed")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("in-flight ingest status %d, want 202 (killed instead of drained)", resp.StatusCode)
	}
	// Shutdown's engine drain ignores its ctx, so bound the wait here.
	select {
	case err := <-shutDone:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(closeTimeout):
		t.Fatalf("Shutdown did not return within %v of the drained request", closeTimeout)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("serve: %v", err)
	}
	// After shutdown the engine is closed — and everything acknowledged
	// before it was accepted.
	if err := e.Ingest(context.Background(), "alice", commute(0)[:1]); err != ErrClosed {
		t.Fatalf("engine not closed after shutdown: %v", err)
	}
}
