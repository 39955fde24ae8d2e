package metrics

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// Server exposes a registry over HTTP: Prometheus text at /metrics, a
// readiness probe at /healthz, the scan flight recorder at /debug/trace
// (when attached), and the standard Go profiler at /debug/pprof/. It
// binds eagerly so ":0" callers can learn the chosen port from Addr.
type Server struct {
	ln      net.Listener
	srv     *http.Server
	ready   atomic.Bool
	traceFn atomic.Value // func(io.Writer, string) error
}

// NewServer listens on addr (e.g. ":8080", "127.0.0.1:0") and serves
// the registry until Close or Shutdown. The error covers the bind only;
// serve-loop errors after a successful bind end the goroutine silently,
// as they only occur at shutdown. The server starts ready.
func NewServer(addr string, reg *Registry) (*Server, error) {
	s := &Server{}
	s.ready.Store(true)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.ready.Load() {
			fmt.Fprint(w, "ok\n")
			return
		}
		http.Error(w, "draining", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		fn, _ := s.traceFn.Load().(func(io.Writer, string) error)
		if fn == nil {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		format := r.URL.Query().Get("format")
		if format == "" {
			format = "jsonl"
		}
		switch format {
		case "jsonl":
			w.Header().Set("Content-Type", "application/x-ndjson")
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
		default:
			http.Error(w, "format must be jsonl or chrome", http.StatusBadRequest)
			return
		}
		_ = fn(w, format)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "zmapgo observability endpoint\n/metrics\n/healthz\n/debug/trace\n/debug/pprof/\n")
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// SetTraceSource attaches the flight recorder: fn writes a dump in the
// given format ("jsonl" or "chrome") and is invoked per /debug/trace
// request. Safe to call at any time, including nil to detach.
func (s *Server) SetTraceSource(fn func(w io.Writer, format string) error) {
	s.traceFn.Store(fn)
}

// SetReady flips the /healthz verdict. The scan engine marks the server
// unready before draining so orchestrators stop routing to it.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Addr returns the bound address (resolving ":0" to the real port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown marks the server unready and drains it gracefully: the
// listener closes at once, in-flight requests (a scrape mid-page) get
// until ctx to finish. Scanner teardown uses this so the listener no
// longer leaks past scan end.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	_ = s.ln.Close()
	return ignoreClosed(s.srv.Shutdown(ctx))
}

// Close stops the server immediately, dropping in-flight requests.
func (s *Server) Close() error {
	s.ready.Store(false)
	_ = s.ln.Close()
	return ignoreClosed(s.srv.Close())
}

// ignoreClosed drops the error of closing an already-closed listener.
// Shutdown and Close close the listener themselves before stopping the
// http.Server, because the server closes only listeners its Serve
// goroutine has already tracked, and that goroutine may not have started
// yet. The server's own close of the listener then reports net.ErrClosed.
func ignoreClosed(err error) error {
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
