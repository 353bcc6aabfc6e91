// Package core assembles BotMeter itself (paper Figure 2): tapped at a
// border DNS server, it matches the incoming forwarded-lookup stream
// against the domains of a target DGA (as reported by a D³ front end),
// groups matches by forwarding local server, selects the analytical model
// fitting the DGA's taxonomy cell, estimates the active bot population
// behind every local server, and renders the resulting botnet landscape
// with remediation priorities.
package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
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
	// Estimators is the set every server's records run through, in one walk
	// (estimators.Walk): the first is the estimator Population reports and
	// the landscape names, and ServerEstimate.Estimates holds every member's
	// figure. Empty means the taxonomy's choice, {ForModel(Family)}.
	Estimators []estimators.Estimator
	// Detection models the D³ front end; nil means perfect pool knowledge.
	Detection *d3.Window
	// SecondOpinion appends the Timing estimator to the set (the paper
	// evaluates MT alongside the model-specific estimator); its figure is
	// ServerEstimate.SecondOpinion.
	SecondOpinion bool
	// Workers bounds the per-server estimation pool inside Analyze
	// (0 = one worker per CPU capped at 16, 1 = sequential). Servers are
	// independent and results are collected in sorted-server order, so any
	// value yields identical landscapes.
	Workers int
	// Stages, when non-nil, records per-stage wall/alloc timings of every
	// chart, and so of every Analyze call ("match" from NewChart to
	// Landscape, "estimate", plus "estimate:<Name>" wall times, one
	// observation per (server, epoch) evaluation) — the source of
	// `botmeter -verbose` and `benchgen -timings` tables.
	Stages *obs.StageSet
}

// withDefaults fills the zero durations and, when none is given, a pool
// cache over (Family, Seed), which shares each pool process-wide.
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

// BotMeter is the analysis pipeline bound to one configuration: its
// estimator set, the estimators' normalised view of the configuration, and
// the per-epoch matchers. Analyze charts a dataset with it, and the
// streaming engine runs its walks and matchers behind a reorder buffer. A
// BotMeter parallelises internally across forwarding servers; the matcher
// cache is concurrency-safe (EpochMatchers), so Analyze may also be called
// from multiple goroutines.
type BotMeter struct {
	cfg Config
	// set is Estimators, or the taxonomy's choice, with MT appended for
	// SecondOpinion; it never shares a backing array with Estimators.
	set    []estimators.Estimator
	estCfg estimators.Config

	matchers *EpochMatchers
}

// New builds a BotMeter instance.
func New(cfg Config) (*BotMeter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	// Normalise the estimators' config once: every (server, epoch) cell then
	// opens without re-validating.
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
	set := slices.Clone(cfg.Estimators)
	if len(set) == 0 {
		set = []estimators.Estimator{estimators.ForModel(cfg.Family)}
	}
	if cfg.SecondOpinion {
		set = append(set, estimators.NewTiming())
	}
	return &BotMeter{cfg: cfg, set: set, estCfg: estCfg, matchers: NewEpochMatchers(cfg.Detection, cfg.Pools)}, nil
}

// Config returns the configuration with its defaults filled in.
func (bm *BotMeter) Config() Config { return bm.cfg }

// EstimatorName reports the selected analytical model: the first of the set.
func (bm *BotMeter) EstimatorName() string { return bm.set[0].Name() }

// Estimators names the estimator set, in set order.
func (bm *BotMeter) Estimators() []string {
	names := make([]string, len(bm.set))
	for i, e := range bm.set {
		names[i] = e.Name()
	}
	return names
}

// Matcher returns one epoch's matcher, built on first use.
func (bm *BotMeter) Matcher(epoch int) *matcher.Attribution { return bm.matchers.For(epoch) }

// NewWalk starts one server's walk through the estimator set; with stages,
// each closed cell files "estimate:<Name>" per estimator.
func (bm *BotMeter) NewWalk(stages *obs.StageSet) *estimators.Walk {
	return estimators.NewWalk(bm.set, bm.estCfg, stages)
}

// ServerEstimate is the assessment for one local DNS server.
type ServerEstimate struct {
	// Server is the forwarding server's identifier.
	Server string
	// Population is the estimated number of active bots behind the server
	// (averaged per epoch across the analysis window): the first estimator's
	// figure.
	Population float64
	// SecondOpinion is the Timing estimator's figure when MT is in the set
	// past the first estimator, as SecondOpinion puts it (zero otherwise).
	SecondOpinion float64
	// Estimates holds every estimator's figure, in set order; Estimates[0]
	// is Population.
	Estimates []float64
	// MatchedLookups counts DGA-attributed forwarded lookups.
	MatchedLookups int
	// PerEpoch holds the per-epoch estimates underlying Population.
	PerEpoch []float64
}

// NewServerEstimate reads one server's assessment off its walk, over the
// epochs first…last: closed epochs give their final values, open ones a
// provisional estimate, and an epoch without a record is 0. It is the one
// place a walk becomes a ServerEstimate, for Analyze and for the streaming
// engine's snapshots alike.
func NewServerEstimate(server string, matched int, w *estimators.Walk, first, last int) ServerEstimate {
	est := ServerEstimate{Server: server, MatchedLookups: matched}
	second := false
	for i, e := range w.Set() {
		perEpoch, mean := w.Series(i, first, last)
		est.Estimates = append(est.Estimates, mean)
		switch {
		case i == 0:
			est.PerEpoch, est.Population = perEpoch, mean
		case !second && e.Name() == "MT":
			est.SecondOpinion, second = mean, true
		}
	}
	return est
}

// Landscape is the chart of a DGA-botnet across the network — the paper's
// deliverable. Servers are sorted by estimated population, descending: the
// remediation priority order.
type Landscape struct {
	Family    string
	Model     string
	Estimator string
	// Estimators names the estimator set, in the order of every server's
	// Estimates; Estimators[0] is Estimator.
	Estimators []string
	Window     sim.Window
	Servers    []ServerEstimate
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

// NewLandscape starts a landscape over w, with no server yet.
func (bm *BotMeter) NewLandscape(w sim.Window) *Landscape {
	return &Landscape{
		Family:     bm.cfg.Family.Name,
		Model:      bm.cfg.Family.ModelName(),
		Estimator:  bm.EstimatorName(),
		Estimators: bm.Estimators(),
		Window:     w,
	}
}

// Rank sorts the servers into remediation priority order: estimated
// population descending, ties by name.
func (l *Landscape) Rank() {
	sort.Slice(l.Servers, func(i, j int) bool {
		if l.Servers[i].Population != l.Servers[j].Population {
			return l.Servers[i].Population > l.Servers[j].Population
		}
		return l.Servers[i].Server < l.Servers[j].Server
	})
}

// IngestStats is the delivery tally of a streamed landscape (the subset of
// the engine's counters an operator needs to judge the chart's fidelity).
type IngestStats struct {
	Ingested         uint64
	Matched          uint64
	DroppedLate      uint64
	ReorderEvictions uint64
}

// Chart is one landscape being charted over a window. NewChart starts it,
// Observe matches one record at a time into its forwarding server's bucket,
// and Landscape runs every server's bucket through one walk. Analyze is a
// chart fed from a dataset; a simulated trial feeds one from its border as
// the records are emitted, so no trace is built (dnssim.Border.Sink). A
// Chart is not safe for concurrent use.
type Chart struct {
	bm       *BotMeter
	w        sim.Window
	epochLen sim.Time
	// Records arrive overwhelmingly in server runs, so the last server's
	// bucket is memoised.
	buckets  []*serverRecords
	byServer map[string]*serverRecords
	last     *serverRecords
	// match spans the chart's intake, from NewChart to Landscape: the
	// "match" stage, filed once per chart.
	match *obs.StageSpan
	// err says why the first record the chart could not keep was refused;
	// Landscape reports it in place of a figure.
	err error
}

// serverRecords is one forwarding server's matched records in arrival
// order, and whether that order is also time order.
type serverRecords struct {
	server   string
	refs     []matchRef
	unsorted bool
}

// matchRef is one matched record as the walk reads it: its time offset in
// the window in the high refOffsetBits bits, its pool position in the low
// refPosBits. It indexes no dataset, so a chart fed record by record keeps
// no trace, and it holds no pointer for the collector to scan.
type matchRef uint64

const (
	refPosBits    = 24
	refOffsetBits = 64 - refPosBits
	// maxChartWindow is the longest window a chart takes, 2^40 ms (about
	// 34.8 years), and maxRefPos the highest pool position it keeps.
	maxChartWindow = sim.Time(1) << refOffsetBits
	maxRefPos      = 1<<refPosBits - 1
)

// newMatchRef packs a record at offset off into the window and pool
// position pos; ok is false for a position the ref cannot hold. NewChart
// bounds the offset.
func newMatchRef(off sim.Time, pos int32) (ref matchRef, ok bool) {
	if pos < 0 || pos > maxRefPos {
		return 0, false
	}
	return matchRef(off)<<refPosBits | matchRef(pos), true
}

func (r matchRef) offset() sim.Time { return sim.Time(r >> refPosBits) }
func (r matchRef) pos() int32       { return int32(r & maxRefPos) }

// NewChart starts charting the window w, with no record yet.
func (bm *BotMeter) NewChart(w sim.Window) (*Chart, error) {
	if w.Len() <= 0 {
		return nil, fmt.Errorf("core: empty analysis window")
	}
	if w.Len() > maxChartWindow {
		return nil, fmt.Errorf("core: analysis window of %v exceeds the %v a chart takes", w.Len(), maxChartWindow)
	}
	return &Chart{
		bm:       bm,
		w:        w,
		epochLen: bm.cfg.EpochLen,
		byServer: make(map[string]*serverRecords),
		match:    bm.cfg.Stages.Start("match"),
	}, nil
}

// Observe matches one record against its epoch's matcher (paper Figure 2,
// steps 3-4: pools rotate across epochs) and keeps it in its forwarding
// server's bucket when it is in the window and matches. The record is only
// read.
func (c *Chart) Observe(rec *trace.ObservedRecord) {
	if !c.w.Contains(rec.T) {
		return
	}
	pos, ok := c.bm.Matcher(int(rec.T / c.epochLen)).Resolve(*rec)
	if !ok {
		return
	}
	ref, ok := newMatchRef(rec.T-c.w.Start, pos)
	if !ok {
		if c.err == nil {
			c.err = fmt.Errorf("core: pool position %d exceeds the %d a chart keeps", pos, maxRefPos)
		}
		return
	}
	b := c.last
	if b == nil || b.server != rec.Server {
		if b = c.byServer[rec.Server]; b == nil {
			b = &serverRecords{server: rec.Server}
			c.byServer[rec.Server] = b
			c.buckets = append(c.buckets, b)
		}
		c.last = b
	}
	if n := len(b.refs); n > 0 && b.refs[n-1].offset() > ref.offset() {
		b.unsorted = true
	}
	b.refs = append(b.refs, ref)
}

// Landscape charts what the chart has matched: each server's records,
// stably time-sorted when they did not arrive in time order, go through one
// walk that carries every estimator of the set. A stable sort commutes with
// the per-server filter, so every stream sees the records a sort of the
// whole input would give it.
func (c *Chart) Landscape() (*Landscape, error) {
	c.match.End()
	c.match = nil
	if c.err != nil {
		return nil, c.err
	}
	// Steps 5-7: per-server estimation. Servers are independent, so they
	// run concurrently on a bounded worker pool, in sorted order.
	bm, buckets := c.bm, c.buckets
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].server < buckets[j].server })
	first, lastEpoch := int(c.w.Start/c.epochLen), int((c.w.End-1)/c.epochLen)
	land := bm.NewLandscape(c.w)
	estStage := bm.cfg.Stages.Start("estimate")
	results, err := parallel.Map(context.Background(), len(buckets), bm.workers(),
		func(_ context.Context, k int) (ServerEstimate, error) {
			b := buckets[k]
			if b.unsorted {
				slices.SortStableFunc(b.refs, func(x, y matchRef) int { return cmp.Compare(x.offset(), y.offset()) })
				b.unsorted = false
			}
			walk := bm.NewWalk(bm.cfg.Stages)
			for _, ref := range b.refs {
				walk.Observe(trace.ObservedRecord{T: c.w.Start + ref.offset(), Pos: ref.pos()})
			}
			walk.CloseThrough(lastEpoch)
			return NewServerEstimate(b.server, len(b.refs), walk, first, lastEpoch), nil
		})
	estStage.End()
	if err != nil {
		return nil, err
	}
	for _, est := range results {
		land.Servers = append(land.Servers, est)
		land.Total += est.Population
		land.MatchedLookups += est.MatchedLookups
	}
	land.Rank()
	return land, nil
}

// Analyze charts the landscape from an observable dataset, in any order,
// over a window: a chart fed every record of the dataset.
func (bm *BotMeter) Analyze(obs trace.Observed, w sim.Window) (*Landscape, error) {
	c, err := bm.NewChart(w)
	if err != nil {
		return nil, err
	}
	for i := range obs {
		c.Observe(&obs[i])
	}
	return c.Landscape()
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
	fmt.Fprintf(&b, "%-4s %-12s %12s %10s\n",
		"rank", "server", "est. bots", "lookups")
	for i, s := range l.Servers {
		fmt.Fprintf(&b, "%-4d %-12s %12.1f %10d\n",
			i+1, s.Server, s.Population, s.MatchedLookups)
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

// Estimates returns every estimator's figure for one server, in the order
// of Estimators (zeros if the server produced no matched traffic).
func (l *Landscape) Estimates(server string) []float64 {
	for _, s := range l.Servers {
		if s.Server == server {
			return s.Estimates
		}
	}
	return make([]float64, max(len(l.Estimators), 1))
}
