package dnssim

import (
	"time"

	"botmeter/internal/obs"
)

// Metric families exported by the DNS hierarchy. Levels are "local", "mid"
// and "border" (one aggregated series per level, not per server — the
// hierarchy can hold thousands of locals).
const (
	MetricQueries     = "dnssim_queries_total"
	MetricForwarded   = "dnssim_forwarded_total"
	MetricRetries     = "dnssim_retries_total"
	MetricServFails   = "dnssim_servfails_total"
	MetricStaleServed = "dnssim_stale_served_total"
	MetricQuerySecs   = "dnssim_query_seconds"

	MetricCacheLookups   = "dnssim_cache_lookups_total"
	MetricCacheHits      = "dnssim_cache_hits_total"
	MetricCacheMisses    = "dnssim_cache_misses_total"
	MetricCacheStaleHits = "dnssim_cache_stale_hits_total"
	MetricCacheStores    = "dnssim_cache_stores_total"
	MetricCacheEvictions = "dnssim_cache_evictions_total"
	MetricCacheEntries   = "dnssim_cache_entries"

	MetricBorderObserved = "dnssim_border_observed_total"
)

// cacheMetrics carries the cache's pre-resolved instruments. The zero value
// (all nil) is the disabled state: obs instruments are nil-safe, so each
// uninstrumented increment is a single predictable branch.
type cacheMetrics struct {
	lookups   *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	staleHits *obs.Counter
	stores    *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge
}

// Instrument registers the cache's counters on reg under the given
// alternating label key/value pairs (typically "level", <tier>). A nil
// registry disables instrumentation. Safe to call before serving; not
// synchronised against concurrent cache use.
func (r *rule) Instrument(reg *obs.Registry, labels ...string) {
	reg.Help(MetricCacheLookups, "Cache lookups, by hierarchy level.")
	reg.Help(MetricCacheHits, "Cache hits (fresh entries).")
	reg.Help(MetricCacheMisses, "Cache misses, including expired entries.")
	reg.Help(MetricCacheStaleHits, "Answers served from expired entries (RFC 8767 serve-stale).")
	reg.Help(MetricCacheStores, "Answers written to the cache.")
	reg.Help(MetricCacheEvictions, "Expired entries left behind when the cache table rehashed.")
	reg.Help(MetricCacheEntries, "Current cached entries, including expired ones no rehash has dropped yet.")
	r.m = cacheMetrics{
		lookups:   reg.Counter(MetricCacheLookups, labels...),
		hits:      reg.Counter(MetricCacheHits, labels...),
		misses:    reg.Counter(MetricCacheMisses, labels...),
		staleHits: reg.Counter(MetricCacheStaleHits, labels...),
		stores:    reg.Counter(MetricCacheStores, labels...),
		evictions: reg.Counter(MetricCacheEvictions, labels...),
		entries:   reg.Gauge(MetricCacheEntries, labels...),
	}
}

// store counts one store (see rule.stored).
func (m *cacheMetrics) store(grew, dropped int) {
	m.stores.Inc()
	if dropped > 0 {
		m.evictions.Add(uint64(dropped))
	}
	// Caches under one label set share the gauge, so each adds its own
	// change: one more entry, less what a rehash left behind.
	if grew != 0 {
		m.entries.Add(float64(grew))
	}
}

// serverMetrics carries a caching server's pre-resolved instruments. Zero
// value = disabled. The latency histogram is guarded by an explicit nil
// check at the call site so the uninstrumented hot path never reads the
// wall clock.
type serverMetrics struct {
	queries     *obs.Counter
	forwarded   *obs.Counter
	retried     *obs.Counter
	servfails   *obs.Counter
	staleServed *obs.Counter
	latency     *obs.Histogram
}

// Instrument registers the server's counters and per-query wall-latency
// histogram on reg, labelled level=<level>. A nil registry disables
// instrumentation.
func (s *Server) Instrument(reg *obs.Registry, level string) {
	reg.Help(MetricQueries, "Client queries handled, by hierarchy level.")
	reg.Help(MetricForwarded, "Cache misses forwarded upstream.")
	reg.Help(MetricRetries, "Upstream retransmissions after failed attempts.")
	reg.Help(MetricServFails, "Client-visible SERVFAILs after retry exhaustion.")
	reg.Help(MetricStaleServed, "Stale answers served while the upstream was unreachable.")
	reg.Help(MetricQuerySecs, "Wall-clock seconds spent handling one query.")
	s.m = serverMetrics{
		queries:     reg.Counter(MetricQueries, "level", level),
		forwarded:   reg.Counter(MetricForwarded, "level", level),
		retried:     reg.Counter(MetricRetries, "level", level),
		servfails:   reg.Counter(MetricServFails, "level", level),
		staleServed: reg.Counter(MetricStaleServed, "level", level),
		latency:     reg.Histogram(MetricQuerySecs, obs.LatencyBuckets, "level", level),
	}
	s.cache.Instrument(reg, "level", level)
}

// observeLatency records one query's wall time; split out so the hot path
// stays branch-only when disabled.
func (m *serverMetrics) observeLatency(t0 time.Time) {
	m.latency.Observe(time.Since(t0).Seconds())
}

// Instrument registers the border's observed-lookup counter on reg. A nil
// registry disables instrumentation.
func (b *Border) Instrument(reg *obs.Registry) {
	reg.Help(MetricBorderObserved, "Forwarded lookups recorded at the border vantage point.")
	b.observedCtr = reg.Counter(MetricBorderObserved)
}
