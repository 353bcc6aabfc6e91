// Command resolver is a minimal caching-and-forwarding local DNS server —
// the live counterpart of the simulator's dnssim.Server and the lower tier
// of the paper's Figure 1. It serves clients over UDP, answers from its
// positive/negative cache, and forwards misses to an upstream server (for
// demos: cmd/vantage). Together the two daemons realise the paper's
// hierarchy end to end:
//
//	vantage  -listen 127.0.0.1:5300 -zone c2.txt -observed obs.jsonl &
//	resolver -listen 127.0.0.1:5301 -upstream 127.0.0.1:5300 &
//	# point clients (or dgasim -live) at 127.0.0.1:5301, then:
//	botmeter -family newgoz -in obs.jsonl -format jsonl
//
// It has one serve loop (DESIGN.md §19): a worker per SO_REUSEPORT socket
// with its own cache shard and its own connected upstream socket. A miss is
// written upstream and the worker goes back to its clients; a reader on the
// upstream socket matches each response to the in-flight table, caches it
// and answers everyone who asked meanwhile, so no query waits behind
// another's round trip and one name is forwarded once.
//
// The forwarder degrades gracefully when the upstream misbehaves: failed
// attempts are retried with exponential backoff and jitter under a
// per-query deadline, responses are validated against the outstanding
// query (a random per-attempt header ID and the question) before being
// cached or relayed, and when every attempt fails the resolver answers from
// expired cache entries (RFC 8767 serve-stale) before resorting to
// SERVFAIL. The -chaos flag injects deterministic faults on the
// client-facing sockets for testing; it runs on the same workers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"botmeter/internal/dnssim"
	"botmeter/internal/faults"
	"botmeter/internal/netx"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
)

// staleAnswerTTL is the TTL advertised on answers served past their
// expiry, per RFC 8767 §5's recommendation to keep stale TTLs short.
const staleAnswerTTL = 30

// unhealthyFailStreak is the number of consecutive upstream retry
// exhaustions after which /healthz reports the resolver degraded: one
// failed query is routine packet loss, a streak means the upstream is dark
// and clients are living off stale answers and SERVFAILs.
const unhealthyFailStreak = 3

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "resolver:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, logw *os.File) error {
	fs := flag.NewFlagSet("resolver", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:5301", "UDP address to serve clients on")
	upstream := fs.String("upstream", "127.0.0.1:5300", "upstream DNS server (border/vantage)")
	posTTL := fs.Duration("positive-ttl", 24*time.Hour, "positive cache TTL")
	negTTL := fs.Duration("negative-ttl", 2*time.Hour, "negative cache TTL")
	timeout := fs.Duration("timeout", 2*time.Second, "per-attempt upstream query timeout")
	retries := fs.Int("retries", 2, "upstream retransmissions after a failed attempt")
	backoff := fs.Duration("backoff", 50*time.Millisecond, "initial retry backoff (doubles per attempt, jittered)")
	deadline := fs.Duration("deadline", 5*time.Second, "overall per-query deadline across all attempts")
	serveStale := fs.Duration("serve-stale", time.Hour, "how long past expiry cached answers may be served when the upstream is unreachable (0 disables)")
	chaosSpec := fs.String("chaos", "", "inject faults on the client sockets, e.g. loss=0.2,dup=0.01,delay=5ms,blackout=10s+2s")
	chaosSeed := fs.Uint64("chaos-seed", 1, "seed for deterministic fault injection (socket 0 draws from it directly)")
	listeners := fs.Int("listeners", 0, "SO_REUSEPORT listener sockets, each with its own worker, cache shard and upstream socket (0 = GOMAXPROCS, capped at 8)")
	obsAddr := fs.String("obs-addr", "", "HTTP diagnostics address serving /metrics, /healthz, /debug/vars, /debug/spans and /debug/pprof (empty disables)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "logfmt", "log encoding: logfmt or json")
	traceSample := fs.Int("trace-sample", 16, "trace 1 in N queries as lifecycle spans (requires -obs-addr; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(logw, level, *logFormat, "resolver")
	if err != nil {
		return err
	}
	rates, err := faults.ParseSpec(*chaosSpec)
	if err != nil {
		return err
	}

	// Observability is opt-in: without -obs-addr the registry and tracer
	// stay nil and every instrument call in the hot path is a no-op branch.
	var reg *obs.Registry
	var tracer *obs.Tracer
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		if *traceSample > 0 {
			tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: *traceSample})
		}
	}

	conns, reuse, err := netx.ListenUDP(ctx, *listen, netx.SocketCount(*listeners))
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if rates.Enabled() {
		conns = faults.WrapPacketConns(conns, *chaosSeed, rates, reg)
		logger.Warn("chaos enabled on client sockets", "rates", rates.String(), "seed", *chaosSeed)
	}
	fwd := newForwarder(forwarderConfig{
		upstream:   *upstream,
		timeout:    *timeout,
		retries:    *retries,
		backoff:    *backoff,
		deadline:   *deadline,
		serveStale: sim.FromDuration(*serveStale),
		posTTL:     sim.FromDuration(*posTTL),
		negTTL:     sim.FromDuration(*negTTL),
		seed:       *chaosSeed ^ 0xf0f0,
		reg:        reg,
		tracer:     tracer,
		log:        logger,
	})
	if err := fwd.attach(conns); err != nil {
		return err
	}
	logger.Info("serving",
		"listen", conns[0].LocalAddr().String(),
		"listeners", len(conns),
		"reuseport", reuse,
		"upstream", *upstream,
		"retries", *retries,
		"serve_stale", serveStale.String())
	if *obsAddr != "" {
		diag, err := obs.StartHTTP(*obsAddr, obs.NewMux(obs.MuxConfig{
			Registry: reg,
			Tracer:   tracer,
			Health:   fwd.health,
		}))
		if err != nil {
			fwd.close()
			return err
		}
		defer diag.Close()
		logger.Info("diagnostics listening", "obs_addr", diag.Addr())
	}
	done := make(chan error, 1)
	go func() { done <- fwd.serve() }()
	defer func() {
		logger.Info("final counters", "counters", fwd.counters().String())
		for i, c := range conns {
			if fc, ok := c.(*faults.PacketConn); ok {
				logger.Info("chaos counters", "socket", i, "counters", fc.Injector().Counters().String())
			}
		}
	}()
	select {
	case <-ctx.Done():
		for _, c := range conns {
			c.Close()
		}
		<-done
		return nil
	case err := <-done:
		if err != nil && ctx.Err() == nil {
			return err
		}
		return nil
	}
}

// forwarderConfig bundles the forwarder's resilience policy.
type forwarderConfig struct {
	upstream string
	// timeout bounds one upstream attempt; deadline bounds the whole
	// query including retries and backoff waits.
	timeout  time.Duration
	deadline time.Duration
	// retries is how many retransmissions follow a failed first attempt.
	retries int
	// backoff is the initial inter-attempt backoff; each retry doubles it
	// and draws a jittered wait from [backoff/2, backoff).
	backoff time.Duration
	// serveStale, when positive, answers from cache entries up to this
	// long past expiry when every upstream attempt fails.
	serveStale sim.Time
	posTTL     sim.Time
	negTTL     sim.Time
	// seed seeds the backoff jitter: worker 0 draws from it directly, so a
	// single listener replays one schedule.
	seed uint64
	// reg and tracer enable metrics and query-lifecycle spans; either may
	// be nil (the default in tests), which disables it. log takes the error
	// logs and must be set.
	reg    *obs.Registry
	tracer *obs.Tracer
	log    *slog.Logger
}

func (c forwarderConfig) withDefaults() forwarderConfig {
	if c.timeout <= 0 {
		c.timeout = 2 * time.Second
	}
	if c.deadline <= 0 {
		c.deadline = 5 * time.Second
	}
	if c.backoff <= 0 {
		c.backoff = 50 * time.Millisecond
	}
	return c
}

// forwarder is what the socket workers share: the policy, the instruments
// and the upstream-health streak. Everything a query touches on its way
// through — cache shard, in-flight table, tallies — is its worker's own.
type forwarder struct {
	cfg     forwarderConfig
	started time.Time
	workers []*worker // set by attach, not changed afterwards

	// failStreak counts consecutive upstream exchanges that exhausted their
	// retries, across all workers; /healthz degrades at unhealthyFailStreak.
	failStreak atomic.Int64
	sendErrs   atomic.Uint64

	m resolverMetrics
}

// Metric families exported by the resolver daemon.
const (
	metricQueries      = "resolver_queries_total"
	metricForwarded    = "resolver_forwarded_total"
	metricRetries      = "resolver_retries_total"
	metricMismatched   = "resolver_mismatched_total"
	metricStaleServed  = "resolver_stale_served_total"
	metricServFails    = "resolver_servfails_total"
	metricCoalesced    = "resolver_coalesced_total"
	metricInflightFull = "resolver_inflight_full_total"
	metricSendErrors   = "resolver_send_errors_total"
	metricInflight     = "resolver_inflight"
	metricQuerySecs    = "resolver_query_seconds"
	metricAttemptSecs  = "resolver_upstream_attempt_seconds"
	metricFailStreak   = "resolver_upstream_consecutive_failures"

	// The cache shards' families keep their dnssim_ names and level label:
	// scrapers, bench/wire.go among them, read them by these.
	metricCacheLookups   = "dnssim_cache_lookups_total"
	metricCacheHits      = "dnssim_cache_hits_total"
	metricCacheMisses    = "dnssim_cache_misses_total"
	metricCacheStaleHits = "dnssim_cache_stale_hits_total"
	metricCacheStores    = "dnssim_cache_stores_total"
	metricCacheEvictions = "dnssim_cache_evictions_total"
	metricCacheEntries   = "dnssim_cache_entries"
)

// resolverMetrics carries the instruments no worker tally stands behind;
// zero value = disabled (obs instruments are nil-safe). Every other
// resolver_* series is a callback over the workers' state (see attach).
type resolverMetrics struct {
	inflightFull *obs.Counter
	querySecs    *obs.Histogram
	attemptSecs  *obs.Histogram
}

func newResolverMetrics(reg *obs.Registry) resolverMetrics {
	reg.Help(metricQueries, "Client datagrams parsed as queries.")
	reg.Help(metricForwarded, "Upstream exchanges that answered (coalesced waiters do not count).")
	reg.Help(metricRetries, "Upstream retransmissions.")
	reg.Help(metricMismatched, "Upstream datagrams rejected by ID/question validation.")
	reg.Help(metricStaleServed, "Answers served past their TTL (RFC 8767 serve-stale).")
	reg.Help(metricServFails, "Client-visible SERVFAILs after retry exhaustion.")
	reg.Help(metricCoalesced, "Misses that joined an upstream exchange already in flight for their name.")
	reg.Help(metricInflightFull, "Times a worker stopped reading its client socket because its in-flight table was full.")
	reg.Help(metricSendErrors, "Responses the client socket refused to send.")
	reg.Help(metricInflight, "Names with an upstream exchange in flight, over all workers.")
	reg.Help(metricQuerySecs, "Wall-clock seconds from a client query's arrival to its answer.")
	reg.Help(metricAttemptSecs, "Wall-clock seconds per upstream exchange attempt.")
	reg.Help(metricFailStreak, "Consecutive upstream exchanges whose attempts all failed (0 = healthy).")
	reg.Help(metricCacheLookups, "Cache lookups, by hierarchy level.")
	reg.Help(metricCacheHits, "Cache hits (fresh entries).")
	reg.Help(metricCacheMisses, "Cache misses, including expired entries.")
	reg.Help(metricCacheStaleHits, "Answers served from expired entries (RFC 8767 serve-stale).")
	reg.Help(metricCacheStores, "Answers written to the cache.")
	reg.Help(metricCacheEvictions, "Expired entries left behind when the cache table rehashed.")
	reg.Help(metricCacheEntries, "Current cached entries, including expired ones no rehash has dropped yet.")
	return resolverMetrics{
		inflightFull: reg.Counter(metricInflightFull),
		querySecs:    reg.Histogram(metricQuerySecs, obs.LatencyBuckets),
		attemptSecs:  reg.Histogram(metricAttemptSecs, obs.LatencyBuckets),
	}
}

// forwarderCounters tallies traffic and degradation events. Each worker
// keeps its own under its mutex; forwarder.counters sums them.
type forwarderCounters struct {
	queries     int // client datagrams parsed as queries
	forwarded   int // upstream exchanges that answered
	coalesced   int // misses that joined an exchange already in flight
	retried     int // upstream retransmissions
	mismatched  int // upstream datagrams rejected by ID/question validation
	staleServed int // answers served past their TTL (RFC 8767)
	servfails   int // client-visible SERVFAILs
}

func (c forwarderCounters) String() string {
	return fmt.Sprintf("queries=%d forwarded=%d coalesced=%d retried=%d mismatched=%d stale-served=%d servfails=%d",
		c.queries, c.forwarded, c.coalesced, c.retried, c.mismatched, c.staleServed, c.servfails)
}

func newForwarder(cfg forwarderConfig) *forwarder {
	f := &forwarder{cfg: cfg.withDefaults(), started: time.Now()}
	if cfg.reg != nil {
		f.m = newResolverMetrics(cfg.reg)
	}
	return f
}

// attach gives every client socket a worker with a connected upstream
// socket of its own, then exports the series the workers' tallies feed.
// Call it once, before serve and before anything reads the counters.
func (f *forwarder) attach(conns []netx.Conn) error {
	for i, c := range conns {
		up, err := net.Dial("udp", f.cfg.upstream)
		if err != nil {
			f.close()
			return fmt.Errorf("upstream socket: %w", err)
		}
		// Worker i's jitter stream is the seed advanced by i golden-ratio
		// strides, like its chaos injector's (faults.WrapPacketConns).
		f.workers = append(f.workers, newWorker(f, c, up, f.cfg.seed+uint64(i)*0x9e3779b97f4a7c15))
	}
	if reg := f.cfg.reg; reg != nil {
		for name, get := range map[string]func(forwarderCounters) int{
			metricQueries:     func(c forwarderCounters) int { return c.queries },
			metricForwarded:   func(c forwarderCounters) int { return c.forwarded },
			metricCoalesced:   func(c forwarderCounters) int { return c.coalesced },
			metricRetries:     func(c forwarderCounters) int { return c.retried },
			metricMismatched:  func(c forwarderCounters) int { return c.mismatched },
			metricStaleServed: func(c forwarderCounters) int { return c.staleServed },
			metricServFails:   func(c forwarderCounters) int { return c.servfails },
		} {
			reg.CounterFunc(name, func() uint64 { return uint64(get(f.counters())) })
		}
		reg.CounterFunc(metricSendErrors, f.sendErrs.Load)
		reg.GaugeFunc(metricInflight, func() float64 { return float64(f.inflight()) })
		reg.GaugeFunc(metricFailStreak, func() float64 { return float64(f.failStreak.Load()) })
		for name, get := range map[string]func(dnssim.CacheTallies) int{
			metricCacheLookups:   func(t dnssim.CacheTallies) int { return t.Lookups },
			metricCacheHits:      func(t dnssim.CacheTallies) int { return t.Hits },
			metricCacheMisses:    func(t dnssim.CacheTallies) int { return t.Misses() },
			metricCacheStaleHits: func(t dnssim.CacheTallies) int { return t.StaleHits },
			metricCacheStores:    func(t dnssim.CacheTallies) int { return t.Stores },
			metricCacheEvictions: func(t dnssim.CacheTallies) int { return t.Evictions },
		} {
			reg.CounterFunc(name, func() uint64 { t, _ := f.cache(); return uint64(get(t)) }, "level", "resolver")
		}
		reg.GaugeFunc(metricCacheEntries, func() float64 { _, n := f.cache(); return float64(n) }, "level", "resolver")
	}
	return nil
}

// close releases the upstream sockets of workers that will not be served.
func (f *forwarder) close() {
	for _, w := range f.workers {
		w.up.Close()
	}
}

// serve runs the workers and blocks until all of them return. A closed
// client socket (shutdown) is a clean exit; every real error is reported.
func (f *forwarder) serve() error {
	errs := make([]error, len(f.workers))
	var wg sync.WaitGroup
	for i, w := range f.workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			errs[i] = w.serve()
		}(i, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// health implements the /healthz probe: unhealthy while a streak of
// upstream exchanges has exhausted its retries (the upstream is dark).
func (f *forwarder) health() error {
	if streak := f.failStreak.Load(); streak >= unhealthyFailStreak {
		return fmt.Errorf("upstream %s unreachable: %d consecutive queries exhausted retries", f.cfg.upstream, streak)
	}
	return nil
}

// now maps wall time onto the cache's virtual clock.
func (f *forwarder) now() sim.Time {
	return sim.FromDuration(time.Since(f.started))
}

// observeQuery records the wall latency of one answered query when metrics
// are enabled (t0 is zero otherwise).
func (f *forwarder) observeQuery(t0 time.Time) {
	if f.m.querySecs != nil && !t0.IsZero() {
		f.m.querySecs.Observe(time.Since(t0).Seconds())
	}
}

// sendFailed accounts a response the client socket refused. The worker must
// outlive it — its socket would otherwise never be read again while
// /healthz stays 200 — but loudly, so the first few are logged.
func (f *forwarder) sendFailed(err error) {
	if n := f.sendErrs.Add(1); n <= 3 {
		f.cfg.log.Error("client send failed", "count", n, "err", err)
	}
}

// counters sums the workers' tallies.
func (f *forwarder) counters() forwarderCounters {
	var c forwarderCounters
	for _, w := range f.workers {
		w.mu.Lock()
		c.queries += w.c.queries
		c.forwarded += w.c.forwarded
		c.coalesced += w.c.coalesced
		c.retried += w.c.retried
		c.mismatched += w.c.mismatched
		c.staleServed += w.c.staleServed
		c.servfails += w.c.servfails
		w.mu.Unlock()
	}
	return c
}

// cache sums the workers' cache shards: their tallies and their entries.
func (f *forwarder) cache() (sum dnssim.CacheTallies, entries int) {
	for _, w := range f.workers {
		w.mu.Lock()
		t := w.cache.Tallies()
		entries += w.cache.Len()
		w.mu.Unlock()
		sum.Lookups += t.Lookups
		sum.Hits += t.Hits
		sum.StaleHits += t.StaleHits
		sum.Stores += t.Stores
		sum.Evictions += t.Evictions
	}
	return sum, entries
}

// inflight is how many names have an upstream exchange in flight.
func (f *forwarder) inflight() int {
	n := 0
	for _, w := range f.workers {
		w.mu.Lock()
		n += len(w.byName)
		w.mu.Unlock()
	}
	return n
}
