package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/obs"
	"locwatch/internal/privlog"
	"locwatch/internal/trace"
)

// Fix is the wire form of one GPS fix. Coordinates exist on the wire
// by definition (this is the ingest boundary the paper's threat model
// is about); they are decoded straight into trace.Point and never
// formatted into a log line or error — privlog guards every
// diagnostic path out of this package.
type Fix struct {
	Lat float64   `json:"lat"`
	Lon float64   `json:"lon"`
	T   time.Time `json:"t"`
}

// IngestRequest is the POST /v1/users/{id}/fixes body.
type IngestRequest struct {
	Fixes []Fix `json:"fixes"`
}

// IngestResponse acknowledges an accepted batch.
type IngestResponse struct {
	Accepted int `json:"accepted"`
}

// errorBody is the JSON error envelope. Messages are static or carry
// counts only — never request payload.
type errorBody struct {
	Error string `json:"error"`
}

// fixWireBytes is the per-fix share of the ingest body bound: the wire
// form of a fix is well under 96 bytes, so MaxBatch fixes fit with
// generous slack.
const fixWireBytes = 96

// NewMux routes the service API onto the engine:
//
//	POST   /v1/users/{id}/fixes  ingest a batch of fixes
//	GET    /v1/users/{id}/risk   the user's current risk snapshot
//	DELETE /v1/users/{id}        evict (park) the user's state
//	GET    /v1/users             all known user ids
//	GET    /healthz              liveness
//
// When reg is non-nil its diagnostic endpoints (/metrics, /debug/vars,
// /debug/pprof/) are mounted too. logger may be nil (silent).
func NewMux(e *Engine, reg *obs.Registry, logger *privlog.Logger) *http.ServeMux {
	mux := http.NewServeMux()
	a := &api{eng: e, log: logger}
	mux.HandleFunc("POST /v1/users/{id}/fixes", a.ingest)
	mux.HandleFunc("GET /v1/users/{id}/risk", a.risk)
	mux.HandleFunc("DELETE /v1/users/{id}", a.evict)
	mux.HandleFunc("GET /v1/users", a.users)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if reg != nil {
		mux.Handle("/metrics", obs.NewHandler(reg))
		mux.Handle("/debug/", obs.NewHandler(reg))
	}
	return mux
}

type api struct {
	eng *Engine
	log *privlog.Logger
}

func (a *api) logf(c privlog.Category, format string, args ...any) {
	if a.log != nil {
		a.log.Printf(c, format, args...)
	}
}

func (a *api) ingest(w http.ResponseWriter, r *http.Request) {
	userID := r.PathValue("id")
	body := http.MaxBytesReader(w, r.Body, int64(a.eng.cfg.MaxBatch+1)*fixWireBytes+1024)
	var req IngestRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "request body too large"})
			return
		}
		a.logf(privlog.CategoryParse, "ingest user %s: malformed body", userID)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed JSON body"})
		return
	}
	// Drain any trailing bytes so keep-alive connections stay reusable.
	_, _ = io.Copy(io.Discard, body) // best-effort drain
	pts := make([]trace.Point, len(req.Fixes))
	for i, f := range req.Fixes {
		p := geo.LatLon{Lat: f.Lat, Lon: f.Lon}
		if !p.Valid() {
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: fmt.Sprintf("fix %d: coordinates out of range", i)})
			return
		}
		pts[i] = trace.Point{Pos: p, T: f.T}
	}
	if err := a.eng.Ingest(r.Context(), userID, pts); err != nil {
		switch {
		case errors.Is(err, ErrBatchTooLarge):
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("batch of %d fixes exceeds limit %d", len(pts), a.eng.cfg.MaxBatch)})
		case errors.Is(err, ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server shutting down"})
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Client went away while we were backpressured; nothing to say.
		default:
			a.logf(privlog.CategoryNetwork, "ingest user %s: %v", userID, err)
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{Accepted: len(pts)})
}

func (a *api) risk(w http.ResponseWriter, r *http.Request) {
	risk, err := a.eng.Risk(r.Context(), r.PathValue("id"))
	if err != nil {
		switch {
		case errors.Is(err, ErrUnknownUser):
			writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown user"})
		case errors.Is(err, ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server shutting down"})
		default:
			// Poisoned user (e.g. out-of-order fixes): the stored error is
			// already privlog-built, safe to surface.
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusOK, risk)
}

func (a *api) evict(w http.ResponseWriter, r *http.Request) {
	found, err := a.eng.Evict(r.Context(), r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server shutting down"})
		return
	}
	if !found {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown user"})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *api) users(w http.ResponseWriter, r *http.Request) {
	ids, err := a.eng.Users(r.Context())
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server shutting down"})
		return
	}
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, map[string][]string{"users": ids})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // nothing to do about a dead client
}

// Server couples an http.Server to an Engine with the shutdown order
// that makes draining safe: stop accepting, drain in-flight HTTP
// (every accepted ingest reaches its shard), then close the engine
// (shards drain their queues). An ingest acknowledged with 202 is
// therefore always reflected in the final state.
type Server struct {
	HTTP   *http.Server
	Engine *Engine
}

// NewServer builds a ready-to-run Server listening on addr.
func NewServer(addr string, e *Engine, reg *obs.Registry, logger *privlog.Logger) *Server {
	return &Server{
		HTTP: &http.Server{
			Addr:              addr,
			Handler:           NewMux(e, reg, logger),
			ReadHeaderTimeout: 10 * time.Second,
		},
		Engine: e,
	}
}

// Shutdown gracefully stops the server: HTTP drain first, engine close
// second. The engine error wins only if HTTP drained cleanly.
func (s *Server) Shutdown(ctx context.Context) error {
	httpErr := s.HTTP.Shutdown(ctx)
	// The engine drain ignores ctx: it is bounded by already-queued
	// work and must complete, since every 202-acknowledged ingest has
	// to reach shard state.
	engErr := s.Engine.Close()
	if httpErr != nil {
		return httpErr
	}
	return engErr
}
