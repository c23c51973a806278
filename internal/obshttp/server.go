// Package obshttp is the shared observability HTTP server behind the
// CLIs' -http flag: one dedicated-mux server exposing /metrics (the
// Prometheus text exposition), /debug/pprof/* (explicitly registered, no
// default-mux blank import), /trace (the run's casa-trace/v1 Chrome
// JSON), and — when a progress tracker is attached — the live endpoints
// /progress (one casa-progress/v1 JSON snapshot) and /events (a
// Server-Sent Events stream of periodic snapshots), with conservative
// timeouts and graceful shutdown. It replaces the per-command copies of
// the default-mux ListenAndServe/log.Fatal pattern, which leaked pprof
// handlers onto every mux in the process and could not be shut down or
// bound to :0 for tests.
//
// The handler plumbing (method guards, metrics exposition, SSE streams,
// pprof registration — see handlers.go) is exported and shared with the
// serving front door, internal/serve.
package obshttp

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"casa/internal/metrics"
	"casa/internal/progress"
	"casa/internal/trace"
)

// defaultEventInterval is the /events snapshot cadence when the caller
// does not override it with SetEventInterval.
const defaultEventInterval = time.Second

// Server is a running observability endpoint. Create with Start.
type Server struct {
	srv *http.Server
	ln  net.Listener
	reg *metrics.Registry

	mu            sync.Mutex
	spans         []trace.Span
	tracker       *progress.Tracker
	eventInterval time.Duration
	err           error

	quit chan struct{} // closed at Shutdown: unblocks long-lived SSE handlers
	done chan struct{}
}

// Start listens on addr (host:port; port 0 picks a free port) and serves
// the observability endpoints in a background goroutine:
//
//	/metrics       Prometheus text exposition of reg (503 when reg is nil)
//	/trace         Chrome trace_event JSON of the published span stream
//	/debug/pprof/  the standard runtime profiles
//
// The trace endpoint returns 503 until PublishTrace is called — a trace
// is only complete once the run has drained, and publishing a finished
// snapshot keeps the handler race-free against still-emitting workers.
// Read-only endpoints accept GET/HEAD only (anything else is 405).
func Start(addr string, reg *metrics.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:            ln,
		reg:           reg,
		eventInterval: defaultEventInterval,
		quit:          make(chan struct{}),
		done:          make(chan struct{}),
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/metrics", MetricsHandler(reg))
	mux.HandleFunc("/trace", s.handleTrace)
	RegisterPprof(mux)

	s.srv = &http.Server{
		Handler: mux,
		// Slow-client protection without breaking the long pollers: a 30 s
		// CPU profile (/debug/pprof/profile) streams for its whole window,
		// so the write timeout must comfortably exceed it.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       time.Minute,
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// handleIndex lists the endpoints this process actually serves right
// now: /progress and /events appear once a tracker is attached, /trace
// once a span stream is published, /metrics when a registry was
// configured. Advertising an endpoint that would 503 misleads operators
// discovering a process by its index page.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	s.mu.Lock()
	hasTracker, hasTrace := s.tracker != nil, s.spans != nil
	s.mu.Unlock()
	fmt.Fprint(w, "casa observability endpoints:\n")
	if s.reg != nil {
		fmt.Fprint(w, "  /metrics\n")
	}
	if hasTrace {
		fmt.Fprint(w, "  /trace\n")
	}
	if hasTracker {
		fmt.Fprint(w, "  /progress\n  /events\n")
	}
	fmt.Fprint(w, "  /debug/pprof/\n")
}

// handleTrace serves the published span stream as Chrome trace JSON.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	s.mu.Lock()
	spans := s.spans
	s.mu.Unlock()
	if spans == nil {
		http.Error(w, "trace not yet available: run with -trace and wait for the run to finish",
			http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WriteChrome(w, spans); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// SetProgress attaches the run's progress tracker, enabling /progress
// and /events (without a tracker both endpoints return 503). Call it
// before the run starts.
func (s *Server) SetProgress(t *progress.Tracker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracker = t
}

// SetEventInterval overrides the /events snapshot cadence (default 1s).
// Zero or negative intervals are rejected with an error: accepting one
// would make the stream spin, and silently keeping the old cadence hid
// caller bugs.
func (s *Server) SetEventInterval(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("obshttp: event interval must be positive, got %v", d)
	}
	s.mu.Lock()
	s.eventInterval = d
	s.mu.Unlock()
	return nil
}

// progressState reads the tracker and event interval under the lock.
func (s *Server) progressState() (*progress.Tracker, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tracker, s.eventInterval
}

// handleProgress serves one casa-progress/v1 snapshot as JSON.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	t, _ := s.progressState()
	if t == nil {
		http.Error(w, "no progress tracker attached to this run", http.StatusServiceUnavailable)
		return
	}
	WriteJSON(w, t.Snapshot())
}

// handleEvents serves the live run as a Server-Sent Events stream: an
// immediate "progress" event, one more per event interval, and a final
// "done" event when the run finishes (then the stream closes). A client
// connecting after the run finished gets the initial snapshot and the
// terminal "done" immediately. The stream also ends on client disconnect
// and at server shutdown.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	t, interval := s.progressState()
	if t == nil {
		http.Error(w, "no progress tracker attached to this run", http.StatusServiceUnavailable)
		return
	}
	es, err := NewEventStream(w)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := es.Emit("progress", t.Snapshot()); err != nil {
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.quit:
			return
		case <-t.Done():
			_ = es.Emit("done", t.Snapshot())
			return
		case <-ticker.C:
			if err := es.Emit("progress", t.Snapshot()); err != nil {
				return
			}
		}
	}
}

// PublishTrace makes spans available at /trace. Call it with the merged
// stream (Trace.Spans) after the run drains; publishing an immutable
// snapshot is what keeps the handler free of data races with workers.
func (s *Server) PublishTrace(spans []trace.Span) {
	s.mu.Lock()
	s.spans = spans
	s.mu.Unlock()
}

// Shutdown gracefully drains in-flight requests and stops the server.
// Long-lived /events streams are told to end first (graceful drain would
// otherwise wait on them forever). It returns the first background serve
// error, if any.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	s.mu.Unlock()
	err := s.srv.Shutdown(ctx)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return err
}

// Close is Shutdown with a 5-second drain budget.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}
