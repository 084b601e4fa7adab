package obs

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Server, *Registry) {
	t.Helper()
	r := NewRegistry()
	r.Counter("pings_total").Inc()
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, r
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	s, _ := startServer(t)
	base := "http://" + s.Addr()

	if code, body := get(t, base+"/metrics"); code != http.StatusOK || !strings.Contains(body, "pings_total 1") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if code, body := get(t, base+"/debug/vars"); code != http.StatusOK || !strings.Contains(body, `"pings_total": 1`) {
		t.Fatalf("/debug/vars: code %d body %q", code, body)
	}
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code %d body %.80q", code, body)
	}
	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: code %d", code)
	}
	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: code %d, want 404", code)
	}
}

// TestServerGracefulShutdown is the metrics-server half of the
// lifecycle pack: shutdown returns cleanly, the serve goroutine
// exits, and the port stops answering.
func TestServerGracefulShutdown(t *testing.T) {
	r := NewRegistry()
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if code, _ := get(t, "http://"+addr+"/metrics"); code != http.StatusOK {
		t.Fatalf("pre-shutdown scrape failed with %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case <-s.done:
	default:
		t.Fatal("serve goroutine still running after Shutdown")
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
	// A second shutdown is a harmless no-op.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestServerShutdownReturnsServeError kills the serve loop before
// shutdown by closing its listener: Shutdown must join the serve
// goroutine and return the loop's error rather than report a clean
// stop.
func TestServerShutdownReturnsServeError(t *testing.T) {
	s, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ln.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		t.Fatal("serve goroutine still running after its listener closed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Shutdown = %v, want the serve loop's closed-listener error", err)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", NewRegistry()); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestServerScrapeUnderLoad scrapes while instruments update from
// other goroutines; meaningful under -race.
func TestServerScrapeUnderLoad(t *testing.T) {
	s, r := startServer(t)
	c := r.Counter("busy_total")
	h := r.Histogram("busy_seconds", DefLatencyBuckets)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				h.Observe(0.001)
			}
		}
	}()
	defer close(stop)
	for i := 0; i < 5; i++ {
		if code, _ := get(t, "http://"+s.Addr()+"/metrics"); code != http.StatusOK {
			t.Fatalf("scrape %d failed with %d", i, code)
		}
		if code, _ := get(t, "http://"+s.Addr()+"/debug/vars"); code != http.StatusOK {
			t.Fatalf("vars scrape %d failed with %d", i, code)
		}
	}
}
