package obs

import (
	"context"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewHandler returns the diagnostic mux for a registry:
//
//	/metrics       Prometheus text exposition
//	/debug/vars    expvar-style JSON
//	/debug/pprof/  net/http/pprof (profile, heap, trace, ...)
//
// The pprof handlers are mounted explicitly so nothing leaks onto
// http.DefaultServeMux.
func NewHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteProm(w); err != nil {
			// The response is already streaming; all we can do is log.
			log.Printf("obs: write /metrics: %v", err)
		}
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := r.WriteJSON(w); err != nil {
			log.Printf("obs: write /debug/vars: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a metrics endpoint started with Serve.
type Server struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
	err  error // Serve's exit error, readable after done closes
}

// Serve listens on addr (":0" picks a free port) and serves the
// registry's diagnostic handler in a background goroutine until
// Shutdown.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv:  &http.Server{Handler: NewHandler(r), ReadHeaderTimeout: 10 * time.Second},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			// The write happens before close(s.done); readers gate on
			// <-s.done.
			s.err = err
		}
	}()
	return s, nil
}

// Addr returns the bound address, useful with ":0".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the server: in-flight requests finish,
// then the serve goroutine exits. It returns the serve loop's error
// if it died before shutdown, or ctx's error if draining outlived it.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
		if s.err != nil {
			return s.err
		}
	case <-ctx.Done():
	}
	return err
}
