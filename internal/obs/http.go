package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MuxConfig wires the diagnostic HTTP endpoint.
type MuxConfig struct {
	// Registry backs /metrics (nil serves an empty exposition).
	Registry *Registry
	// Health backs /healthz: nil or a nil-returning func is healthy (200);
	// an error yields 503 with the error text.
	Health func() error
	// Status, when non-nil, contributes extra lines to a healthy /healthz
	// body after the "ok" — e.g. cmd/vantage's crash-recovery status
	// ("recovered from checkpoint generation 4, replayed 1200 records").
	// An empty return adds nothing.
	Status func() string
	// Tracer backs /debug/spans (nil serves nothing).
	Tracer *Tracer
	// Landscape backs /landscape: a function returning the current
	// landscape snapshot as JSON bytes (e.g. stream.Engine.LandscapeJSON).
	// Nil yields 404; an error yields 500 with the error text.
	Landscape func() ([]byte, error)
	// Series backs /debug/series: the Landscape Observatory's time-series
	// store (a *series.Store — passed as a plain handler so obs does not
	// import its own subpackage). Nil yields 404.
	Series http.Handler
	// History backs /landscape/history: the observatory's landscape history
	// (per-family totals, deltas, estimator disagreement) as JSON bytes.
	// Nil yields 404; an error yields 500.
	History func() ([]byte, error)
	// State backs /state: the engine's exported sufficient statistics as a
	// checkpoint frame (stream.EncodeCheckpoint bytes — the header and
	// binary payload a checkpoint file holds, not JSON), pulled by a
	// landscape-server federating this vantage. Nil yields 404; an error
	// yields 500.
	State func() ([]byte, error)
}

// NewMux builds the diagnostic mux: /metrics (Prometheus text), /healthz,
// /debug/vars (expvar), /debug/spans (sampled span JSONL) and
// /debug/pprof/*.
func NewMux(cfg MuxConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.Registry.WritePrometheus(w) //nolint:errcheck // client gone
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.Health != nil {
			if err := cfg.Health(); err != nil {
				http.Error(w, fmt.Sprintf("unhealthy: %v", err), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		if cfg.Status != nil {
			if s := cfg.Status(); s != "" {
				fmt.Fprintln(w, s)
			}
		}
	})
	mux.HandleFunc("/landscape", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Landscape == nil {
			http.NotFound(w, r)
			return
		}
		body, err := cfg.Landscape()
		if err != nil {
			http.Error(w, fmt.Sprintf("landscape: %v", err), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body) //nolint:errcheck // client gone
	})
	mux.HandleFunc("/landscape/history", func(w http.ResponseWriter, r *http.Request) {
		if cfg.History == nil {
			http.NotFound(w, r)
			return
		}
		body, err := cfg.History()
		if err != nil {
			http.Error(w, fmt.Sprintf("history: %v", err), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body) //nolint:errcheck // client gone
	})
	mux.HandleFunc("/state", func(w http.ResponseWriter, r *http.Request) {
		if cfg.State == nil {
			http.NotFound(w, r)
			return
		}
		body, err := cfg.State()
		if err != nil {
			http.Error(w, fmt.Sprintf("state: %v", err), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(body) //nolint:errcheck // client gone
	})
	mux.HandleFunc("/debug/series", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Series == nil {
			http.NotFound(w, r)
			return
		}
		cfg.Series.ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		cfg.Tracer.DumpJSONL(w) //nolint:errcheck // client gone
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HTTPServer is a running diagnostic endpoint.
type HTTPServer struct {
	srv *http.Server
	ln  net.Listener
}

// StartHTTP listens on addr and serves the mux in a background goroutine.
// Pass the returned server's Addr to clients (useful with ":0") and Close
// it on shutdown.
func StartHTTP(addr string, handler http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return &HTTPServer{srv: srv, ln: ln}, nil
}

// Addr returns the bound listen address. Nil-safe ("").
func (s *HTTPServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the endpoint down, waiting briefly for in-flight requests.
// Nil-safe.
func (s *HTTPServer) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
