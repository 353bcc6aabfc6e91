// Package stream is the online landscape engine: the batch pipeline of
// internal/core (match → group by server → per-epoch estimate → rank)
// re-expressed over an unbounded record stream in bounded memory. It is
// what turns the paper's Figure-2 deployment from "collect a trace, then
// analyse it" into continuous monitoring at a border vantage point.
//
// Architecture (DESIGN.md §13):
//
//   - Observe hashes each record by forwarding server onto one of a fixed
//     set of ingest shards; each shard is a goroutine fed by a bounded
//     inbox that it drains a batch at a time (backpressure, never unbounded
//     queuing). A server's records are always handled by the same shard, so
//     per-server state needs no cross-shard coordination.
//   - Inside a shard, matched records pass through a small reorder buffer:
//     a min-heap by (timestamp, arrival), drained up to the watermark
//     maxT − ReorderWindow. Emission is therefore in non-decreasing
//     timestamp order (stable for ties). Records older than the watermark
//     are dropped and counted; buffer overflow evicts the oldest entry and
//     advances the watermark — graceful degradation, never a panic, never
//     a watermark regression.
//   - Estimation is core.Analyze's: each server's emitted records go through
//     its estimators.Walk, whose open (server, epoch) cells hold one
//     EpochStream per estimator of the set, fed record by record. When the
//     watermark closes the epoch the streams report their final estimates
//     and are freed. No record outlives the reorder buffer: memory is that
//     buffer plus each open cell's sufficient statistics — never the
//     epoch's records, never the trace.
//
// The defining contract (enforced by TestBatchStreamEquivalence under
// -race): for any trace, streaming the records yields the same landscape
// as core.Analyze over the full trace — exactly for MP/NC/MB/MB-C
// (set/multiset-based, insensitive to tie order) and exactly for MT on
// in-order input; after shuffling within the reorder window MT may differ
// only through the ordering of equal-timestamp records, the documented
// tolerance.
package stream

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// Metric families exported by the engine (see Config.Registry).
const (
	MetricIngested  = "stream_ingested_records_total"
	MetricMatched   = "stream_matched_records_total"
	MetricUnmatched = "stream_unmatched_records_total"
	MetricLate      = "stream_dropped_late_total"
	MetricEvictions = "stream_reorder_evictions_total"
	MetricEpochs    = "stream_epochs_closed_total"
	MetricRetained  = "stream_retained_records"
	MetricWatermark = "stream_watermark_ms"
	MetricSnapshots = "stream_snapshots_total"
	MetricRotations = "stream_source_rotations_total"
	// MetricWatermarkLag is a per-shard callback gauge: seconds between the
	// wall clock and the shard's watermark, evaluated at scrape time. Only
	// meaningful in live deployments, where record timestamps are Unix ms.
	MetricWatermarkLag = "stream_watermark_lag_seconds"
	// MetricReorderDepth is a per-shard callback gauge: records currently
	// held in the shard's reorder heap.
	MetricReorderDepth = "stream_reorder_depth"
	// MetricOpenCells and MetricExpiryQueue are per-shard callback gauges of
	// the state the ingest path holds but does not walk: open (server, epoch)
	// cells, and cells queued for candidate expiry.
	MetricOpenCells   = "stream_open_cells"
	MetricExpiryQueue = "stream_expiry_queue"
	// MetricEpochClose is a histogram of the wall time spent finalising one
	// (server, epoch) cell — the estimation cost paid at each epoch close.
	MetricEpochClose = "stream_epoch_close_seconds"
)

// Config configures one streaming deployment for one target DGA family.
type Config struct {
	// Core carries the analysis configuration (family, seed, epoch length,
	// TTL, granularity, estimator set, detection, second opinion).
	// Core.Workers and Core.Stages are ignored: parallelism comes from the
	// ingest shards.
	Core core.Config
	// Shards is the number of ingest shards (0 = one per CPU, capped at 8).
	Shards int
	// ShardBuffer is how many records may wait in a shard's inbox (0 =
	// 256). Observe blocks while that many are waiting — backpressure, not
	// unbounded queuing.
	ShardBuffer int
	// ReorderWindow bounds how far out of order timestamps may arrive and
	// still be re-sequenced (0 = 2 s). Records older than
	// maxT − ReorderWindow are dropped and counted.
	ReorderWindow sim.Time
	// MaxReorder bounds the reorder buffer per shard (0 = 4096). Overflow
	// evicts the oldest buffered record, advancing the watermark.
	MaxReorder int
	// Window, when non-zero, pins the analysis window (must be epoch-
	// aligned for the batch↔stream contract). Zero derives the window from
	// the observed data, epoch-aligned, exactly like cmd/botmeter.
	Window sim.Window
	// Vantage, when non-empty, names this engine's observation point in a
	// multi-vantage federation (DESIGN.md §18). It is stamped into exported
	// EngineState.Vantages so MergeStates can refuse to fold two snapshots
	// claiming the same vantage, and a coordinator can track per-vantage
	// freshness. It is deliberately NOT part of the config fingerprint:
	// states from different vantages under one analysis config must remain
	// mergeable, and a vantage rename must not invalidate its checkpoints.
	Vantage string
	// Registry exports stream_* metrics when non-nil.
	Registry *obs.Registry
	// Clock overrides the wall-clock source behind the watermark-lag and
	// epoch-close-latency instruments (tests inject a fake). Nil = time.Now.
	// Virtual record timestamps are never read from it.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.ShardBuffer <= 0 {
		c.ShardBuffer = 256
	}
	if c.ReorderWindow <= 0 {
		c.ReorderWindow = 2 * sim.Second
	}
	if c.MaxReorder <= 0 {
		c.MaxReorder = 4096
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Stats is a point-in-time tally of the engine's ingest plane: the shards'
// tallies summed, and what the engine holds.
type Stats struct {
	ShardStats
	// Retained is the number of records currently held: the reorder
	// buffers' (an open epoch holds a statistic, not records).
	Retained int
	// PeakRetained sums the per-shard retention peaks — an upper bound on
	// the true engine-wide peak (shard peaks need not coincide in time).
	// This is the heap gauge behind the bounded-memory assertion of the
	// equivalence test: it must stay well below the trace size.
	PeakRetained int
	// Watermark is the minimum watermark across shards that have seen
	// data; WatermarkValid reports whether any shard has.
	Watermark      sim.Time
	WatermarkValid bool
}

// Engine is the online landscape engine. Observe may be called from any
// number of goroutines; Snapshot is safe at any time; Close is terminal.
type Engine struct {
	cfg Config
	// bm is the analysis the shards run behind their reorder buffers: its
	// matchers, and one walk per server through its estimator set.
	bm *core.BotMeter

	shards []*shard

	// mu guards closed: a barrier holds it shared, Close and Kill
	// exclusively. Observe does not take it; each shard's inbox refuses
	// records once closed.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	// restored is what Restore put in the shards' tallies. The registry's
	// counters read Stats less it: they count this process's work.
	restored ShardStats
	m        engineMetrics
}

// engineMetrics carries the instruments no shard tally stands behind; zero
// value = disabled (obs instruments are nil-safe). Every other stream_*
// series is a callback over the shards' state (see Engine.start).
type engineMetrics struct {
	snapshots  *obs.Counter
	rotations  *obs.Counter
	epochClose *obs.Histogram
}

// New builds and starts the engine: shards spin up immediately and wait
// for records.
func New(cfg Config) (*Engine, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// newEngine builds the engine without starting the shard goroutines —
// shared by New and by checkpoint Restore, which must import shard state
// before any record can race it.
func newEngine(cfg Config) (*Engine, error) {
	bm, err := core.New(cfg.Core)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	cfg.Core = bm.Config()
	cfg = cfg.withDefaults()
	if cfg.Window.Len() < 0 {
		return nil, fmt.Errorf("stream: negative analysis window")
	}
	if cfg.Window.Len() > 0 {
		if cfg.Window.Start%cfg.Core.EpochLen != 0 || cfg.Window.End%cfg.Core.EpochLen != 0 {
			return nil, fmt.Errorf("stream: window %v…%v is not epoch-aligned (δe=%v)",
				cfg.Window.Start, cfg.Window.End, cfg.Core.EpochLen)
		}
	}
	e := &Engine{cfg: cfg, bm: bm}
	if reg := cfg.Registry; reg != nil {
		reg.Help(MetricIngested, "Records handed to the streaming engine.")
		reg.Help(MetricMatched, "Records attributed to the target DGA and emitted to estimation.")
		reg.Help(MetricUnmatched, "Records outside the family's detected pool.")
		reg.Help(MetricLate, "Matched records dropped for arriving older than the watermark.")
		reg.Help(MetricEvictions, "Forced emissions from a full reorder buffer.")
		reg.Help(MetricEpochs, "Per-server epochs finalised.")
		reg.Help(MetricRetained, "Records currently retained (reorder buffers).")
		reg.Help(MetricWatermark, "Per-shard watermark (virtual ms).")
		reg.Help(MetricSnapshots, "Landscape snapshots served.")
		reg.Help(MetricRotations, "Source-file rotations/truncations survived while tailing.")
		reg.Help(MetricWatermarkLag, "Seconds between the wall clock and the shard watermark (live mode).")
		reg.Help(MetricReorderDepth, "Records held in the shard's reorder heap.")
		reg.Help(MetricOpenCells, "Open (server, epoch) cells held by the shard.")
		reg.Help(MetricExpiryQueue, "Cells queued on the shard's candidate-expiry heap.")
		reg.Help(MetricEpochClose, "Wall seconds spent finalising one (server, epoch) cell.")
		e.m = engineMetrics{
			snapshots:  reg.Counter(MetricSnapshots),
			rotations:  reg.Counter(MetricRotations),
			epochClose: reg.Histogram(MetricEpochClose, obs.LatencyBuckets),
		}
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i)
	}
	return e, nil
}

// start spins up the shard goroutines and exports the engine's series:
// callbacks over the shards' tallies, registered only now so that an engine
// whose Restore failed leaves none behind.
func (e *Engine) start() {
	if reg := e.cfg.Registry; reg != nil {
		for name, get := range map[string]func(ShardStats) uint64{
			MetricIngested:  func(t ShardStats) uint64 { return t.Ingested },
			MetricMatched:   func(t ShardStats) uint64 { return t.Matched },
			MetricUnmatched: func(t ShardStats) uint64 { return t.Unmatched },
			MetricLate:      func(t ShardStats) uint64 { return t.DroppedLate },
			MetricEvictions: func(t ShardStats) uint64 { return t.ReorderEvictions },
			MetricEpochs:    func(t ShardStats) uint64 { return t.EpochsClosed },
		} {
			reg.CounterFunc(name, func() uint64 { return get(e.Stats().ShardStats) - get(e.restored) })
		}
		reg.GaugeFunc(MetricRetained, func() float64 { return float64(e.Stats().Retained) })
	}
	for _, s := range e.shards {
		s := s
		s.startMetrics()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			s.loop()
		}()
	}
}

// EstimatorName reports the selected analytical model: the first of the set.
func (e *Engine) EstimatorName() string { return e.bm.EstimatorName() }

// Observe queues one observed record in its server's shard inbox. It blocks
// while Config.ShardBuffer records are waiting there (backpressure) and
// fails after Close or Kill; a record it accepted is ingested before the
// shard stops. The record's strings must stay valid until the shard has
// attributed it, after Observe returns: a caller whose name lives in a
// reused buffer hands over Held's spelling instead.
func (e *Engine) Observe(rec trace.ObservedRecord) error {
	if !e.shards[shardIndex(rec.Server, len(e.shards))].in.put(rec) {
		return fmt.Errorf("stream: engine closed")
	}
	return nil
}

// Held is name as the engine itself holds it at t: resolved through t's
// epoch matcher, the string the pool or the collision list owns when the
// DGA is charged with the lookup, and "" when it is not. A record carrying
// Held's spelling attributes as one carrying name (no pool holds ""), and
// the string never aliases name's bytes, so a caller may reuse them as
// soon as Held returns.
func (e *Engine) Held(t sim.Time, name string) string {
	a := e.bm.Matcher(int(t / e.cfg.Core.EpochLen))
	if pos, ok := a.Resolve(trace.ObservedRecord{Domain: name}); ok {
		return a.Name(pos)
	}
	return ""
}

// shardIndex hashes a server name onto a shard (FNV-1a).
func shardIndex(server string, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(server); i++ {
		h ^= uint32(server[i])
		h *= prime32
	}
	return int(h % uint32(shards))
}

// Stats merges the per-shard tallies.
func (e *Engine) Stats() Stats {
	out := Stats{Watermark: math.MinInt64}
	for _, s := range e.shards {
		s.mu.Lock()
		out.add(s.Stats)
		out.Retained += s.retained
		out.PeakRetained += s.PeakRetained
		if s.HasData && (!out.WatermarkValid || s.Watermark < out.Watermark) {
			out.Watermark, out.WatermarkValid = s.Watermark, true
		}
		s.mu.Unlock()
	}
	return out
}

// ShardStat is one ingest shard's point-in-time state — the per-shard
// view behind the stream_watermark_lag_seconds / stream_reorder_depth
// gauges and the Observatory's freshness sampling.
type ShardStat struct {
	// Shard is the shard index (the "shard" metric label).
	Shard int
	// Watermark is the shard's low-water mark; WatermarkValid reports
	// whether the shard has emitted one (i.e. has seen matched data).
	Watermark      sim.Time
	WatermarkValid bool
	// LagSeconds is the wall-clock freshness of the watermark: now −
	// watermark in seconds, clamped at 0, and 0 while the watermark is
	// invalid. Meaningful in live mode, where record timestamps are Unix ms.
	LagSeconds float64
	// ReorderDepth is the number of records in the reorder heap.
	ReorderDepth int
	// Retained is the shard's current retained-record count (its reorder
	// heap's).
	Retained int
	// ShardStats is the shard's share of the engine tallies.
	ShardStats
}

// ShardStats reports every shard's state at the engine clock's current
// time, in shard order.
func (e *Engine) ShardStats() []ShardStat {
	now := e.cfg.Clock()
	out := make([]ShardStat, len(e.shards))
	for i, s := range e.shards {
		s.mu.Lock()
		out[i] = ShardStat{
			Shard:          i,
			Watermark:      s.Watermark,
			WatermarkValid: s.Watermark != math.MinInt64,
			LagSeconds:     s.lagSecondsLocked(now),
			ReorderDepth:   s.buf.len(),
			Retained:       s.retained,
			ShardStats:     s.Stats,
		}
		s.mu.Unlock()
	}
	return out
}

// WatermarkLagSeconds reports the engine's worst-case freshness: the
// largest watermark lag across shards that have emitted a watermark (0
// when none has). This is the signal the freshness SLO rule watches — a
// single stalled shard degrades the whole engine, because the landscape
// is only as fresh as its stalest shard.
func (e *Engine) WatermarkLagSeconds() float64 {
	now := e.cfg.Clock()
	var worst float64
	for _, s := range e.shards {
		s.mu.Lock()
		lag := s.lagSecondsLocked(now)
		s.mu.Unlock()
		if lag > worst {
			worst = lag
		}
	}
	return worst
}

// Snapshot assembles the current landscape: closed epochs contribute their
// finalised estimates, open epochs a provisional estimate over what has
// been observed so far. The returned landscape is an independent copy. The
// error is always nil: the signature is older than the one kind of cell,
// whose estimate cannot fail.
func (e *Engine) Snapshot() (*core.Landscape, error) {
	e.m.snapshots.Inc()
	first, last, ok := e.epochSpan()
	if !ok {
		return e.bm.NewLandscape(sim.Window{}), nil
	}
	land := e.bm.NewLandscape(sim.Window{
		Start: sim.Time(first) * e.cfg.Core.EpochLen,
		End:   sim.Time(last+1) * e.cfg.Core.EpochLen,
	})
	for _, s := range e.shards {
		s.mu.Lock()
		servers := make([]string, 0, len(s.servers))
		for name := range s.servers {
			servers = append(servers, name)
		}
		sort.Strings(servers)
		for _, name := range servers {
			sv := s.servers[name]
			est := core.NewServerEstimate(name, sv.matched, sv.walk, first, last)
			land.Servers = append(land.Servers, est)
			land.Total += est.Population
			land.MatchedLookups += est.MatchedLookups
		}
		s.mu.Unlock()
	}
	land.Rank()
	return land, nil
}

// LandscapeJSON renders the current snapshot with core.Landscape's stable
// JSON schema — the payload behind the obs mux's /landscape endpoint. The
// snapshot is annotated with the engine's ingest tallies ("ingest" block)
// so operators can see late drops and reorder evictions — silent data loss
// — next to the chart they degraded.
func (e *Engine) LandscapeJSON() ([]byte, error) {
	land, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	stats := e.Stats()
	land.Ingest = &core.IngestStats{
		Ingested:         stats.Ingested,
		Matched:          stats.Matched,
		DroppedLate:      stats.DroppedLate,
		ReorderEvictions: stats.ReorderEvictions,
	}
	var buf bytes.Buffer
	if err := land.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// epochSpan resolves the analysis window to an inclusive epoch range.
func (e *Engine) epochSpan() (first, last int, ok bool) {
	if e.cfg.Window.Len() > 0 {
		return int(e.cfg.Window.Start / e.cfg.Core.EpochLen),
			int((e.cfg.Window.End - 1) / e.cfg.Core.EpochLen), true
	}
	minT, maxT := sim.Time(math.MaxInt64), sim.Time(math.MinInt64)
	for _, s := range e.shards {
		s.mu.Lock()
		if s.HasData {
			minT = min(minT, s.MinT)
			maxT = max(maxT, s.MaxT)
		}
		s.mu.Unlock()
	}
	if minT > maxT {
		return 0, 0, false
	}
	return int(minT / e.cfg.Core.EpochLen), int(maxT / e.cfg.Core.EpochLen), true
}

// Close drains the shards — every buffered record is emitted in timestamp
// order, every open epoch is finalised — and returns the final landscape.
// Observe fails after Close; Close is idempotent on failure but must be
// called once.
func (e *Engine) Close() (*core.Landscape, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("stream: engine already closed")
	}
	e.closed = true
	e.mu.Unlock()
	for _, s := range e.shards {
		s.in.close()
	}
	e.wg.Wait()
	for _, s := range e.shards {
		s.mu.Lock()
		s.flushLocked()
		s.mu.Unlock()
	}
	return e.Snapshot()
}

// Kill abandons the engine without flushing: shard goroutines stop where
// they are, buffered records and open epochs are discarded, no landscape is
// produced — the in-process analogue of `kill -9` for crash tests. The
// engine is unusable afterwards; recovery goes through Restore.
func (e *Engine) Kill() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	for _, s := range e.shards {
		s.in.close()
	}
	e.wg.Wait()
}
