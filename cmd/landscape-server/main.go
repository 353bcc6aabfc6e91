// Command landscape-server is the federation coordinator: it pulls (or
// receives) exported engine state from N vantage daemons, merges the
// sufficient statistics into one landscape (DESIGN.md §18) and serves the
// result to many concurrent clients.
//
// Each vantage runs `vantage -live-estimate ... -vantage-id NAME`, whose
// diagnostics endpoint serves the engine's exported state as a checkpoint
// frame at /state. This daemon polls those endpoints on an interval with
// bounded fan-in, folds every snapshot through stream.MergeStates — exact
// because each border server forwards to exactly one vantage — and
// publishes:
//
//	/landscape   merged landscape JSON, with a strong ETag; clients that
//	             revalidate with If-None-Match get 304 while unchanged
//	/state       the merged sufficient statistics themselves (checkpoint
//	             frame), so coordinators can be chained
//	/push        POST a checkpoint frame instead of being polled
//	/healthz     degraded on stale vantages (freshness SLO) and on
//	             fingerprint divergence, with the offending fields named
//	/metrics     per-vantage freshness/pull gauges and counters
//
// The served landscape is rebuilt copy-on-write: each merge produces a new
// immutable snapshot swapped in atomically, so /landscape readers never
// block the pull loop and never observe a half-merged chart.
//
// Usage:
//
//	landscape-server -listen 127.0.0.1:8090 \
//	  -vantages http://127.0.0.1:9001,http://127.0.0.1:9002 \
//	  -pull-interval 5s -freshness-slo 30s
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"botmeter/internal/dga"
	"botmeter/internal/obs"
	"botmeter/internal/obs/rules"
	"botmeter/internal/obs/series"
	"botmeter/internal/stream"
)

// Metric families exported by the coordinator.
const (
	metricPulls       = "landscape_server_pulls_total"
	metricPullErrors  = "landscape_server_pull_errors_total"
	metricFreshness   = "landscape_server_vantage_freshness_seconds"
	metricVantages    = "landscape_server_vantages"
	metricMerges      = "landscape_server_merges_total"
	metricMergeErrors = "landscape_server_merge_errors_total"
	metricRequests    = "landscape_server_landscape_requests_total"
	metricNotModified = "landscape_server_not_modified_total"
)

// maxFrameBytes bounds a pulled or pushed checkpoint frame (a frame is
// sufficient statistics, not raw records — far below this in practice).
// The payload decoder allocates in proportion to the bytes it is given and
// never to a count they claim, so this is also what bounds a hostile
// frame's cost.
const maxFrameBytes = 256 << 20

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "landscape-server:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, logw *os.File) error {
	fs := flag.NewFlagSet("landscape-server", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8090", "HTTP address serving /landscape, /state, /push, /healthz and /metrics")
	vantagesFlag := fs.String("vantages", "", "comma-separated vantage diagnostic base URLs to pull /state from (empty = push-only)")
	pullInterval := fs.Duration("pull-interval", 5*time.Second, "poll every vantage's /state this often")
	fanIn := fs.Int("fan-in", 4, "maximum concurrent vantage pulls")
	freshnessSLO := fs.Duration("freshness-slo", 0, "degrade /healthz when a vantage's last good snapshot is older than this (0 disables)")
	sloFor := fs.Int("slo-for", 2, "consecutive breaching polls before the freshness SLO fires")
	httpTimeout := fs.Duration("http-timeout", 10*time.Second, "per-pull HTTP timeout")
	historyPoints := fs.Int("history-points", 512, "points kept per /debug/series time series")
	historyStep := fs.Duration("history-step", time.Second, "time-series downsampling step for /debug/series")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "logfmt", "log encoding: logfmt or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(logw, level, *logFormat, "landscape-server")
	if err != nil {
		return err
	}

	var urls []string
	for _, u := range strings.Split(*vantagesFlag, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 && *vantagesFlag != "" {
		return fmt.Errorf("-vantages: no usable URLs in %q", *vantagesFlag)
	}
	if *fanIn < 1 {
		return fmt.Errorf("-fan-in must be at least 1, got %d", *fanIn)
	}

	reg := obs.NewRegistry()
	c := newCoordinator(coordinatorConfig{
		Registry:     reg,
		Logger:       logger,
		Store:        series.NewStore(series.Config{Capacity: *historyPoints, Step: *historyStep}),
		Vantages:     urls,
		FreshnessSLO: *freshnessSLO,
		SLOFor:       *sloFor,
		HTTPTimeout:  *httpTimeout,
	})

	defer c.close()

	srv, err := obs.StartHTTP(*listen, c.handler())
	if err != nil {
		return err
	}
	defer srv.Close()
	logger.Info("serving",
		"listen", srv.Addr(), "vantages", len(urls),
		"pull_interval", pullInterval.String(), "fan_in", *fanIn)
	if *freshnessSLO > 0 {
		logger.Info("freshness slo armed", "slo", freshnessSLO.String(), "for", *sloFor)
	}

	if len(urls) > 0 {
		ticker := time.NewTicker(*pullInterval)
		defer ticker.Stop()
		for {
			c.pullAll(ctx, *fanIn)
			select {
			case <-ctx.Done():
				return nil
			case <-ticker.C:
			}
		}
	}
	<-ctx.Done()
	return nil
}

// servedLandscape is one immutable published snapshot; rebuilds swap in a
// whole new value, readers load it atomically.
type servedLandscape struct {
	body    []byte
	etag    string
	builtAt time.Time
}

// vantageStatus tracks one pulled vantage endpoint for /healthz and
// /metrics. Keyed by URL (stable before the first successful decode);
// names holds the vantage identities the endpoint declared.
type vantageStatus struct {
	names    []string
	lastOK   time.Time
	lastErr  error
	pulls    uint64
	failures uint64
}

type coordinatorConfig struct {
	Registry     *obs.Registry
	Logger       *slog.Logger
	Store        *series.Store
	Vantages     []string
	FreshnessSLO time.Duration
	SLOFor       int
	HTTPTimeout  time.Duration
	Now          func() time.Time // test hook; nil = time.Now
}

// coordinator merges vantage snapshots and serves the result.
type coordinator struct {
	merger  *stream.Merger
	client  *http.Client
	log     *slog.Logger
	reg     *obs.Registry
	rules   *rules.Engine
	store   *series.Store
	urls    []string
	slo     time.Duration
	started time.Time
	now     func() time.Time

	served atomic.Pointer[servedLandscape]
	state  atomic.Pointer[stream.EngineState]

	// rebuildMu serialises rebuild (a /push can race the pull loop). eng is
	// the engine the served landscape was rendered from, kept until the next
	// rebuild has restored its own: the open epochs' pools stay alive in
	// between, so a refresh shares them (dga.PoolCache) instead of
	// regenerating them every -pull-interval.
	rebuildMu sync.Mutex
	eng       *stream.Engine

	mu     sync.Mutex
	status map[string]*vantageStatus
}

func newCoordinator(cfg coordinatorConfig) *coordinator {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	timeout := cfg.HTTPTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	c := &coordinator{
		merger:  stream.NewMerger(),
		client:  &http.Client{Timeout: timeout},
		log:     cfg.Logger,
		reg:     cfg.Registry,
		rules:   rules.New(),
		store:   cfg.Store,
		urls:    cfg.Vantages,
		slo:     cfg.FreshnessSLO,
		started: now(),
		now:     now,
		status:  make(map[string]*vantageStatus),
	}
	cfg.Registry.Help(metricPulls, "Vantage /state pulls attempted.")
	cfg.Registry.Help(metricPullErrors, "Vantage /state pulls that failed (fetch, decode or merge).")
	cfg.Registry.Help(metricFreshness, "Seconds since the vantage's last good snapshot was merged.")
	cfg.Registry.Help(metricVantages, "Distinct vantage identities in the merged landscape.")
	cfg.Registry.Help(metricMerges, "Merged-landscape rebuilds published.")
	cfg.Registry.Help(metricMergeErrors, "Merged-landscape rebuilds that failed.")
	cfg.Registry.Help(metricRequests, "/landscape requests served.")
	cfg.Registry.Help(metricNotModified, "/landscape requests answered 304 via If-None-Match.")
	dga.ExportPoolMetrics(cfg.Registry)
	for _, url := range cfg.Vantages {
		url := url
		c.status[url] = &vantageStatus{}
		// Freshness ages between pulls, so it is a callback gauge: always
		// current at scrape time.
		cfg.Registry.GaugeFunc(metricFreshness, func() float64 {
			return c.freshness(url).Seconds()
		}, "vantage", url)
		if cfg.FreshnessSLO > 0 {
			//nolint:errcheck // names are unique (status map keys)
			c.rules.Add(rules.Rule{
				Name:      "freshness:" + url,
				Threshold: cfg.FreshnessSLO.Seconds(),
				For:       cfg.SLOFor,
				Unit:      "s",
			})
		}
	}
	c.rules.OnTransition(func(tr rules.Transition) {
		cfg.Logger.Warn("slo transition",
			"rule", tr.Rule, "from", tr.From.String(), "to", tr.To.String(), "value", fmt.Sprintf("%.3g", tr.Value))
	})
	return c
}

// freshness is the age of a vantage's last good snapshot (time since
// startup when it has never delivered one).
func (c *coordinator) freshness(url string) time.Duration {
	c.mu.Lock()
	st := c.status[url]
	var last time.Time
	if st != nil {
		last = st.lastOK
	}
	c.mu.Unlock()
	if last.IsZero() {
		last = c.started
	}
	return c.now().Sub(last)
}

// handler builds the HTTP surface: the coordinator's own /landscape,
// /push and ETag logic in front of the standard diagnostics mux.
func (c *coordinator) handler() http.Handler {
	inner := obs.NewMux(obs.MuxConfig{
		Registry: c.reg,
		Health:   c.health,
		Status:   c.statusLines,
		Series:   c.store,
		State:    c.stateFrame,
	})
	outer := http.NewServeMux()
	outer.HandleFunc("/landscape", c.handleLandscape)
	outer.HandleFunc("/push", c.handlePush)
	outer.Handle("/", inner)
	return outer
}

// handleLandscape serves the current merged snapshot with a strong ETag.
func (c *coordinator) handleLandscape(w http.ResponseWriter, r *http.Request) {
	c.reg.Counter(metricRequests).Inc()
	cur := c.served.Load()
	if cur == nil {
		http.Error(w, "no merged landscape yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("ETag", cur.etag)
	w.Header().Set("Cache-Control", "no-cache")
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, cur.etag) {
		c.reg.Counter(metricNotModified).Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(cur.body) //nolint:errcheck // client gone
}

// etagMatches implements If-None-Match: a comma-separated list of entity
// tags, or "*" matching any current representation.
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || part == etag || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// handlePush accepts a checkpoint frame from a vantage that pushes
// instead of being polled, merges it and republishes.
func (c *coordinator) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a checkpoint frame", http.StatusMethodNotAllowed)
		return
	}
	frame, err := io.ReadAll(io.LimitReader(r.Body, maxFrameBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading frame: %v", err), http.StatusBadRequest)
		return
	}
	names, err := c.ingestFrame(frame)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if err := c.rebuild(); err != nil {
		http.Error(w, fmt.Sprintf("merge: %v", err), http.StatusUnprocessableEntity)
		return
	}
	c.log.Info("pushed snapshot merged", "vantages", strings.Join(names, ","))
	w.WriteHeader(http.StatusNoContent)
}

// ingestFrame decodes and folds one checkpoint frame into the merger,
// returning the vantage identities it declared.
func (c *coordinator) ingestFrame(frame []byte) ([]string, error) {
	st, err := stream.DecodeCheckpoint(frame)
	if err != nil {
		return nil, fmt.Errorf("decoding frame: %w", err)
	}
	if len(st.Vantages) == 0 {
		return nil, fmt.Errorf("snapshot declares no vantage identity (run the vantage with -vantage-id)")
	}
	if err := c.merger.Update(st); err != nil {
		return nil, err
	}
	return st.Vantages, nil
}

// pullAll polls every configured vantage once, with at most fanIn pulls
// in flight, then republishes the merged landscape and re-evaluates the
// freshness SLO.
func (c *coordinator) pullAll(ctx context.Context, fanIn int) {
	sem := make(chan struct{}, fanIn)
	var wg sync.WaitGroup
	for _, url := range c.urls {
		url := url
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			c.pull(ctx, url)
		}()
	}
	wg.Wait()
	if c.merger.Len() > 0 {
		if err := c.rebuild(); err != nil {
			c.log.Error("rebuild failed", "err", err)
		}
	}
	for _, url := range c.urls {
		age := c.freshness(url)
		c.store.Record(series.Name("vantage_freshness_seconds", "vantage", url), age.Seconds())
		c.rules.Eval("freshness:"+url, age.Seconds())
	}
}

// pull fetches one vantage's /state and folds it in.
func (c *coordinator) pull(ctx context.Context, url string) {
	c.reg.Counter(metricPulls, "vantage", url).Inc()
	err := func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/state", nil)
		if err != nil {
			return err
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return fmt.Errorf("%s/state: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
		}
		frame, err := io.ReadAll(io.LimitReader(resp.Body, maxFrameBytes))
		if err != nil {
			return err
		}
		names, err := c.ingestFrame(frame)
		if err != nil {
			return err
		}
		c.mu.Lock()
		st := c.status[url]
		st.names = names
		st.lastOK = c.now()
		st.lastErr = nil
		st.pulls++
		c.mu.Unlock()
		return nil
	}()
	if err != nil {
		c.reg.Counter(metricPullErrors, "vantage", url).Inc()
		c.mu.Lock()
		st := c.status[url]
		st.lastErr = err
		st.pulls++
		st.failures++
		n := st.failures
		c.mu.Unlock()
		if n <= 3 || n%16 == 0 {
			c.log.Error("pull failed", "vantage", url, "failures", n, "err", err)
		}
	}
}

// rebuild merges every held snapshot and publishes a fresh landscape:
// restore an engine from the merged state, quiesce it so every buffered
// record is reflected, and serialize. The previous snapshot stays served
// until the swap, and the previous engine alive until this one is restored.
func (c *coordinator) rebuild() error {
	c.rebuildMu.Lock()
	defer c.rebuildMu.Unlock()
	err := func() error {
		merged, err := c.merger.Merged()
		if err != nil {
			return err
		}
		cfg, err := stream.ConfigForState(merged)
		if err != nil {
			return err
		}
		eng, err := stream.Restore(cfg, merged)
		if err != nil {
			return err
		}
		prev := c.eng
		c.eng = eng
		if prev != nil {
			prev.Kill()
		}
		if err := eng.Quiesce(); err != nil {
			return err
		}
		body, err := eng.LandscapeJSON()
		if err != nil {
			return err
		}
		sum := sha256.Sum256(body)
		c.served.Store(&servedLandscape{
			body:    body,
			etag:    `"` + hex.EncodeToString(sum[:]) + `"`,
			builtAt: c.now(),
		})
		c.state.Store(merged)
		c.reg.Counter(metricMerges).Inc()
		c.reg.Gauge(metricVantages).Set(float64(len(merged.Vantages)))
		return nil
	}()
	if err != nil {
		c.reg.Counter(metricMergeErrors).Inc()
	}
	return err
}

// close stops the engine the last rebuild left running.
func (c *coordinator) close() {
	c.rebuildMu.Lock()
	defer c.rebuildMu.Unlock()
	if c.eng != nil {
		c.eng.Kill()
		c.eng = nil
	}
}

// stateFrame serves the merged sufficient statistics (for /state), so
// coordinators can themselves be federated.
func (c *coordinator) stateFrame() ([]byte, error) {
	st := c.state.Load()
	if st == nil {
		return nil, fmt.Errorf("no merged state yet")
	}
	return stream.EncodeCheckpoint(st)
}

// health implements /healthz: unhealthy while a freshness SLO fires or
// any vantage's last pull failed on fingerprint divergence — a
// configuration split that will never heal on its own, named field by
// field via the typed error.
func (c *coordinator) health() error {
	if err := c.rules.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, url := range c.urls {
		st := c.status[url]
		var mismatch *stream.FingerprintMismatchError
		if st != nil && errors.As(st.lastErr, &mismatch) {
			return fmt.Errorf("vantage %s: %w", url, st.lastErr)
		}
	}
	return nil
}

// statusLines contributes per-vantage detail to a healthy /healthz body.
func (c *coordinator) statusLines() string {
	var lines []string
	if cur := c.served.Load(); cur != nil {
		lines = append(lines, fmt.Sprintf("landscape built %s ago, etag %s",
			c.now().Sub(cur.builtAt).Round(time.Millisecond), cur.etag))
	}
	c.mu.Lock()
	urls := make([]string, 0, len(c.status))
	for url := range c.status {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	for _, url := range urls {
		st := c.status[url]
		line := fmt.Sprintf("vantage %s: pulls %d, failures %d", url, st.pulls, st.failures)
		if len(st.names) > 0 {
			line += ", identities " + strings.Join(st.names, "+")
		}
		if !st.lastOK.IsZero() {
			line += fmt.Sprintf(", fresh %s ago", c.now().Sub(st.lastOK).Round(time.Millisecond))
		}
		if st.lastErr != nil {
			line += ", last error: " + st.lastErr.Error()
		}
		lines = append(lines, line)
	}
	c.mu.Unlock()
	return strings.Join(lines, "\n")
}
