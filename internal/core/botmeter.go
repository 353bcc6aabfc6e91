// Package core assembles BotMeter itself (paper Figure 2): tapped at a
// border DNS server, it matches the incoming forwarded-lookup stream
// against the domains of a target DGA (as reported by a D³ front end),
// groups matches by forwarding local server, selects the analytical model
// fitting the DGA's taxonomy cell, estimates the active bot population
// behind every local server, and renders the resulting botnet landscape
// with remediation priorities.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"botmeter/internal/d3"
	"botmeter/internal/dga"
	"botmeter/internal/estimators"
	"botmeter/internal/matcher"
	"botmeter/internal/obs"
	"botmeter/internal/parallel"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// Config configures one BotMeter deployment for one target DGA family
// (paper Figure 2, steps 2 and 6: pattern specification plus parameter
// configuration).
type Config struct {
	// Family is the target DGA.
	Family dga.Spec
	// Seed reconstructs the family's pools.
	Seed uint64
	// Pools is the per-epoch pool cache the matcher and the estimators
	// share: one pool object per epoch, generated once. A caller holding a
	// per-trial cache symbolized against the simulator's intern table passes
	// it here, and the matcher then resolves the simulated border's records
	// by ID. Nil gets a private, unsymbolized cache over (Family, Seed), and
	// every record is resolved by name; results are identical either way.
	Pools *dga.PoolCache
	// EpochLen is δe (default one day).
	EpochLen sim.Time
	// NegativeTTL is the local servers' negative-cache TTL δl (default 2 h).
	NegativeTTL sim.Time
	// Granularity is the vantage point's timestamp granularity.
	Granularity sim.Time
	// Estimator overrides the taxonomy-based model selection when non-nil.
	Estimator estimators.Estimator
	// Detection models the D³ front end; nil means perfect pool knowledge.
	Detection *d3.Window
	// SecondOpinion additionally runs the Timing estimator on every server
	// (the paper evaluates MT alongside the model-specific estimator).
	SecondOpinion bool
	// Workers bounds the per-server estimation pool inside Analyze
	// (0 = one worker per CPU capped at 16, 1 = sequential). Servers are
	// independent and results are collected in sorted-server order, so any
	// value yields identical landscapes.
	Workers int
	// Stages, when non-nil, records per-stage wall/alloc timings of every
	// Analyze call ("match", "estimate", plus "estimate:<Name>" wall times,
	// one observation per (server, epoch) evaluation) — the source of
	// `botmeter -verbose` and `benchgen -timings` tables.
	Stages *obs.StageSet
}

func (c Config) withDefaults() Config {
	if c.EpochLen <= 0 {
		c.EpochLen = sim.Day
	}
	if c.NegativeTTL <= 0 {
		c.NegativeTTL = 2 * sim.Hour
	}
	if c.Pools == nil {
		c.Pools = dga.NewPoolCache(c.Family.Pool, c.Seed, nil)
	}
	if c.Estimator == nil {
		c.Estimator = estimators.ForModel(c.Family)
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Family.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Detection != nil {
		if err := c.Detection.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// BotMeter is the analysis pipeline bound to one configuration. A BotMeter
// parallelises internally across forwarding servers; the per-epoch matcher
// cache is concurrency-safe (EpochMatchers), so Analyze may also be called
// from multiple goroutines, though per-call estimator state still makes
// one instance per goroutine the simpler deployment.
type BotMeter struct {
	cfg Config

	matchers *EpochMatchers
}

// New builds a BotMeter instance.
func New(cfg Config) (*BotMeter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &BotMeter{
		cfg:      cfg,
		matchers: NewEpochMatchers(cfg.Detection, cfg.Pools),
	}, nil
}

// EstimatorName reports the selected analytical model.
func (bm *BotMeter) EstimatorName() string { return bm.cfg.Estimator.Name() }

// ServerEstimate is the assessment for one local DNS server.
type ServerEstimate struct {
	// Server is the forwarding server's identifier.
	Server string
	// Population is the estimated number of active bots behind the server
	// (averaged per epoch across the analysis window).
	Population float64
	// SecondOpinion is the Timing estimator's figure when enabled (NaN
	// semantics avoided: zero when disabled).
	SecondOpinion float64
	// MatchedLookups counts DGA-attributed forwarded lookups.
	MatchedLookups int
	// DistinctDomains counts distinct DGA domains seen from this server.
	DistinctDomains int
	// PerEpoch holds the per-epoch estimates underlying Population.
	PerEpoch []float64
}

// Landscape is the chart of a DGA-botnet across the network — the paper's
// deliverable. Servers are sorted by estimated population, descending: the
// remediation priority order.
type Landscape struct {
	Family    string
	Model     string
	Estimator string
	Window    sim.Window
	Servers   []ServerEstimate
	// Total is the summed population estimate across servers.
	Total float64
	// MatchedLookups counts all DGA-attributed lookups in the window.
	MatchedLookups int
	// Ingest, when non-nil, carries the streaming engine's delivery tallies
	// so silent data loss (late drops, reorder-buffer evictions) is visible
	// next to the chart it degraded. Batch analysis sees every record by
	// construction and leaves it nil.
	Ingest *IngestStats
}

// IngestStats is the delivery tally of a streamed landscape (the subset of
// the engine's counters an operator needs to judge the chart's fidelity).
type IngestStats struct {
	Ingested         uint64
	Matched          uint64
	DroppedLate      uint64
	ReorderEvictions uint64
}

// Analyze charts the landscape from an observable dataset over a window.
func (bm *BotMeter) Analyze(obs trace.Observed, w sim.Window) (*Landscape, error) {
	if w.Len() <= 0 {
		return nil, fmt.Errorf("core: empty analysis window")
	}
	cfg := bm.cfg
	// Normalise the estimator config once: every per-(server, epoch)
	// evaluation below then takes the fast path instead of re-running
	// defaults + validation per cell.
	estCfg, err := estimators.Config{
		Spec:        cfg.Family,
		Seed:        cfg.Seed,
		EpochLen:    cfg.EpochLen,
		NegativeTTL: cfg.NegativeTTL,
		Granularity: cfg.Granularity,
		Detection:   cfg.Detection,
		Pools:       cfg.Pools,
	}.Normalized()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Step 3-4: match the stream per epoch (pools rotate across epochs);
	// a matched record leaves with its pool position stamped on it, which is
	// all the estimators read. Records arrive overwhelmingly in epoch order,
	// so the last epoch's matcher is memoised locally — the common case skips
	// EpochMatchers.For's mutex entirely.
	matchStage := cfg.Stages.Start("match")
	// matched accumulates through a chunked builder: matches can be a small
	// fraction of the window (one family's lookups inside mixed traffic),
	// so presizing to len(obs) allocated and zeroed a window-sized array
	// per Analyze call, while plain append-growth re-copies the prefix
	// repeatedly when most records match.
	var matchedB trace.Builder
	var lastMatcher *matcher.Attribution
	lastMatcherEpoch := 0
	for _, rec := range obs {
		if !w.Contains(rec.T) {
			continue
		}
		epoch := int(rec.T / cfg.EpochLen)
		if lastMatcher == nil || epoch != lastMatcherEpoch {
			lastMatcher = bm.matchers.For(epoch)
			lastMatcherEpoch = epoch
		}
		if lastMatcher.Attribute(&rec) {
			matchedB.Append(rec)
		}
	}
	matched := matchedB.Build()
	matchStage.End()

	// Step 5-7: per-server estimation. Servers are independent, so they
	// are estimated concurrently with a bounded worker pool; the pool size
	// follows GOMAXPROCS and each worker owns its loop state (the shared
	// estimator instances synchronise their internal caches themselves).
	land := &Landscape{
		Family:         cfg.Family.Name,
		Model:          cfg.Family.ModelName(),
		Estimator:      cfg.Estimator.Name(),
		Window:         w,
		MatchedLookups: len(matched),
	}
	byServer := matched.ByServer()
	servers := make([]string, 0, len(byServer))
	for s := range byServer {
		servers = append(servers, s)
	}
	sort.Strings(servers)

	estStage := cfg.Stages.Start("estimate")
	results, err := parallel.Map(context.Background(), len(servers), bm.workers(),
		func(_ context.Context, i int) (ServerEstimate, error) {
			est, err := bm.estimateServer(servers[i], byServer[servers[i]], w, estCfg)
			if err != nil {
				return est, fmt.Errorf("core: %s: %w", servers[i], err)
			}
			return est, nil
		})
	estStage.End()
	if err != nil {
		return nil, err
	}
	for _, est := range results {
		land.Servers = append(land.Servers, est)
		land.Total += est.Population
	}
	sort.Slice(land.Servers, func(i, j int) bool {
		if land.Servers[i].Population != land.Servers[j].Population {
			return land.Servers[i].Population > land.Servers[j].Population
		}
		return land.Servers[i].Server < land.Servers[j].Server
	})
	return land, nil
}

// estimateServer produces one server's assessment: the same per-epoch walk
// (estimators.EstimateWindow) for the selected model and, when enabled, for
// the MT second opinion.
func (bm *BotMeter) estimateServer(server string, serverObs trace.Observed, w sim.Window, estCfg estimators.Config) (ServerEstimate, error) {
	cfg := bm.cfg
	est := ServerEstimate{
		Server:          server,
		MatchedLookups:  len(serverObs),
		DistinctDomains: serverObs.DistinctDomainCount(),
	}
	var err error
	if est.PerEpoch, est.Population, err = estimators.EstimateWindow(cfg.Estimator, serverObs, w, estCfg, cfg.Stages); err != nil {
		return est, err
	}
	if cfg.SecondOpinion {
		if _, est.SecondOpinion, err = estimators.EstimateWindow(estimators.NewTiming(), serverObs, w, estCfg, cfg.Stages); err != nil {
			return est, fmt.Errorf("second opinion: %w", err)
		}
	}
	return est, nil
}

// workers resolves the per-server estimation pool size: the configured
// Workers when positive, else one worker per CPU capped at 16 (the cap
// keeps goroutine fan-out bounded on very wide hosts; server counts are
// typically small).
func (bm *BotMeter) workers() int {
	if bm.cfg.Workers > 0 {
		return bm.cfg.Workers
	}
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// String renders the landscape as a fixed-width report.
func (l *Landscape) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BotMeter landscape — family %s (%s), estimator %s\n",
		l.Family, l.Model, l.Estimator)
	fmt.Fprintf(&b, "window %v … %v, %d matched lookups\n",
		l.Window.Start, l.Window.End, l.MatchedLookups)
	fmt.Fprintf(&b, "%-4s %-12s %12s %10s %10s\n",
		"rank", "server", "est. bots", "lookups", "domains")
	for i, s := range l.Servers {
		fmt.Fprintf(&b, "%-4d %-12s %12.1f %10d %10d\n",
			i+1, s.Server, s.Population, s.MatchedLookups, s.DistinctDomains)
	}
	fmt.Fprintf(&b, "total estimated population: %.1f\n", l.Total)
	return b.String()
}

// Top returns the k highest-priority servers (fewer if not available).
func (l *Landscape) Top(k int) []ServerEstimate {
	if k > len(l.Servers) {
		k = len(l.Servers)
	}
	out := make([]ServerEstimate, k)
	copy(out, l.Servers[:k])
	return out
}

// Estimate returns the population estimate for one server (0 if the server
// produced no matched traffic).
func (l *Landscape) Estimate(server string) float64 {
	for _, s := range l.Servers {
		if s.Server == server {
			return s.Population
		}
	}
	return 0
}
