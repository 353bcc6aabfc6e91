package stream

// The Landscape Observatory (DESIGN.md §16) watches a running Engine for
// the failure modes that silently corrupt a landscape rather than crash
// it: a stalled shard whose watermark stops advancing (stale estimates
// presented as current), lossy ingest (late drops and reorder evictions
// biasing populations down), estimator drift (the estimators of the set —
// the model-specific one and the MT second opinion, say — diverging), and
// a checkpointer falling behind its recovery-point objective.
//
// It samples two planes on independent cadences:
//
//   - the ingest plane (Interval, default 1 s): per-shard watermark lag
//     and reorder depth, retained records, ingest rate, lossy-ingest
//     rate, checkpoint age — all recorded into the series store;
//   - the landscape plane (HistoryInterval, default 10 s): a full
//     Snapshot reduced to total population, server count, delta vs the
//     previous sample and the estimator-disagreement ratio, recorded
//     into the store and kept as a bounded history ring behind
//     /landscape/history.
//
// Each sample also feeds the threshold rules (freshness, loss,
// disagreement); rule transitions become structured log events, and the
// aggregate state backs /healthz via Health.

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/obs"
	"botmeter/internal/obs/rules"
	"botmeter/internal/obs/series"
)

// Observatory metric/series families and rule names.
const (
	MetricRecordsPerSecond = "stream_records_per_second"
	MetricLossRate         = "stream_loss_rate"
	MetricLandscapeTotal   = "landscape_total"
	MetricLandscapeServers = "landscape_servers"
	MetricLandscapeDelta   = "landscape_total_delta"
	MetricEstimateTotal    = "landscape_estimate_total"
	MetricDisagreement     = "landscape_disagreement"

	// RuleFreshness fires when the worst shard watermark lag exceeds the
	// freshness SLO; RuleLoss when the lossy-ingest ratio exceeds its bound;
	// RuleDisagreement when the estimators' relative spread does.
	RuleFreshness    = "freshness"
	RuleLoss         = "loss"
	RuleDisagreement = "disagreement"
)

// ObservatoryConfig wires an Observatory to a running engine.
type ObservatoryConfig struct {
	// Engine is the engine under observation (required).
	Engine *Engine
	// Checkpoints, when non-nil, contributes the checkpoint-age signal.
	Checkpoints *Checkpointer
	// Store receives the sampled series (nil = a fresh default store).
	Store *series.Store
	// Registry receives the landscape gauges (ingest-plane gauges are
	// already exported by the engine); nil disables them.
	Registry *obs.Registry
	// Logger receives rule-transition events; nil silences them.
	Logger *slog.Logger
	// Interval is the ingest-plane sampling cadence (0 = 1 s).
	Interval time.Duration
	// HistoryInterval is the landscape sampling cadence (0 = 10 s).
	HistoryInterval time.Duration
	// HistoryPoints bounds the /landscape/history ring (0 = 360).
	HistoryPoints int
	// FreshnessSLO arms the freshness rule: degraded when the worst shard
	// watermark lag exceeds it. 0 disables the rule.
	FreshnessSLO time.Duration
	// LossRateSLO arms the loss rule: degraded when the lossy-ingest ratio
	// (late drops + reorder evictions over ingested, per interval) exceeds
	// it. 0 disables the rule.
	LossRateSLO float64
	// DisagreementSLO arms the drift rule: degraded when the estimators'
	// relative spread exceeds it. 0 disables the rule.
	DisagreementSLO float64
	// Clock overrides the sampling clock (tests). Nil = time.Now.
	Clock func() time.Time
}

func (c ObservatoryConfig) withDefaults() ObservatoryConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.HistoryInterval <= 0 {
		c.HistoryInterval = 10 * time.Second
	}
	if c.HistoryPoints <= 0 {
		c.HistoryPoints = 360
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// HistoryPoint is one landscape sample in the /landscape/history ring.
type HistoryPoint struct {
	// T is the sample time (Unix ms).
	T int64 `json:"t"`
	// Total is the landscape's total estimated population; Servers the
	// number of forwarding servers contributing to it.
	Total   float64 `json:"total"`
	Servers int     `json:"servers"`
	// Delta is Total minus the previous sample's Total (0 on the first).
	Delta float64 `json:"delta"`
	// Estimates maps estimator name → total population, one entry for each
	// distinct estimator of the set.
	Estimates map[string]float64 `json:"estimates"`
	// Disagreement is the relative spread of the estimates: (max − min) /
	// mean, 0 with fewer than two opinions. The drift-alarm signal.
	Disagreement float64 `json:"disagreement"`
}

// historyJSON is the /landscape/history response schema.
type historyJSON struct {
	IntervalMS int64          `json:"interval_ms"`
	Family     string         `json:"family"`
	Estimator  string         `json:"estimator"`
	Points     []HistoryPoint `json:"points"`
}

// Observatory samples one engine into a series store, a history ring and
// a rule engine. Start/Stop run the sampling loop; SampleIngest and
// SampleLandscape are also callable directly (tests, one-shot tools).
type Observatory struct {
	cfg   ObservatoryConfig
	rules *rules.Engine

	mu      sync.Mutex
	history []HistoryPoint
	// prev* feed the ingest-plane rates.
	prevAt       time.Time
	prevIngested uint64
	prevLost     uint64
	prevTotal    float64
	hasPrevTotal bool

	lsTotal    *obs.Gauge
	lsServers  *obs.Gauge
	lsDelta    *obs.Gauge
	lsDisagree *obs.Gauge
	rps        *obs.Gauge
	lossRate   *obs.Gauge

	done chan struct{}
	wg   sync.WaitGroup
}

// NewObservatory builds an observatory over cfg.Engine. The rule set is
// derived from the SLO fields: each non-zero SLO installs its rule with a
// clear level at half the threshold (hysteresis) so a signal oscillating
// at the SLO cannot flap /healthz.
func NewObservatory(cfg ObservatoryConfig) (*Observatory, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("stream: observatory needs an engine")
	}
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		cfg.Store = series.NewStore(series.Config{Clock: cfg.Clock})
	}
	o := &Observatory{cfg: cfg, rules: rules.New(), done: make(chan struct{})}
	if cfg.FreshnessSLO > 0 {
		sec := cfg.FreshnessSLO.Seconds()
		if err := o.rules.Add(rules.Rule{Name: RuleFreshness, Threshold: sec, Clear: sec / 2, Unit: "s"}); err != nil {
			return nil, err
		}
	}
	if cfg.LossRateSLO > 0 {
		if err := o.rules.Add(rules.Rule{Name: RuleLoss, Threshold: cfg.LossRateSLO, Clear: cfg.LossRateSLO / 2}); err != nil {
			return nil, err
		}
	}
	if cfg.DisagreementSLO > 0 {
		if err := o.rules.Add(rules.Rule{Name: RuleDisagreement, Threshold: cfg.DisagreementSLO, Clear: cfg.DisagreementSLO / 2}); err != nil {
			return nil, err
		}
	}
	o.rules.OnTransition(func(tr rules.Transition) {
		log := cfg.Logger.Warn
		if tr.To == rules.OK {
			log = cfg.Logger.Info
		}
		log("slo transition", "rule", tr.Rule, "from", tr.From.String(), "to", tr.To.String(), "value", tr.Value)
	})
	if reg := cfg.Registry; reg != nil {
		reg.Help(MetricLandscapeTotal, "Total estimated population in the last landscape sample.")
		reg.Help(MetricLandscapeServers, "Forwarding servers in the last landscape sample.")
		reg.Help(MetricLandscapeDelta, "Population change since the previous landscape sample.")
		reg.Help(MetricDisagreement, "Relative spread (max-min)/mean of per-estimator population totals.")
		reg.Help(MetricRecordsPerSecond, "Ingest rate over the last observatory interval.")
		reg.Help(MetricLossRate, "Lossy-ingest ratio (late drops + evictions over ingested) over the last interval.")
		o.lsTotal = reg.Gauge(MetricLandscapeTotal)
		o.lsServers = reg.Gauge(MetricLandscapeServers)
		o.lsDelta = reg.Gauge(MetricLandscapeDelta)
		o.lsDisagree = reg.Gauge(MetricDisagreement)
		o.rps = reg.Gauge(MetricRecordsPerSecond)
		o.lossRate = reg.Gauge(MetricLossRate)
	}
	return o, nil
}

// Store exposes the backing series store (the /debug/series handler).
func (o *Observatory) Store() *series.Store { return o.cfg.Store }

// Rules exposes the rule engine (tests, status lines).
func (o *Observatory) Rules() *rules.Engine { return o.rules }

// Start runs the sampling loop until Stop.
func (o *Observatory) Start() {
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		ingest := time.NewTicker(o.cfg.Interval)
		landscape := time.NewTicker(o.cfg.HistoryInterval)
		defer ingest.Stop()
		defer landscape.Stop()
		for {
			select {
			case <-o.done:
				return
			case <-ingest.C:
				o.SampleIngest()
			case <-landscape.C:
				o.SampleLandscape()
			}
		}
	}()
}

// Stop halts the sampling loop. Idempotent is NOT guaranteed; call once.
func (o *Observatory) Stop() {
	close(o.done)
	o.wg.Wait()
}

// Health aggregates the firing rules into the /healthz error (nil when
// every rule is clear).
func (o *Observatory) Health() error { return o.rules.Err() }

// SampleIngest takes one ingest-plane sample: per-shard lag and depth,
// engine tallies, rates, checkpoint age — recorded into the store — then
// evaluates the freshness and loss rules.
func (o *Observatory) SampleIngest() {
	now := o.cfg.Clock()
	st := o.cfg.Store
	shards := o.cfg.Engine.ShardStats()
	var worstLag float64
	for _, ss := range shards {
		label := strconv.Itoa(ss.Shard)
		st.Series(series.Name(MetricWatermarkLag, "shard", label)).RecordAt(now, ss.LagSeconds)
		st.Series(series.Name(MetricReorderDepth, "shard", label)).RecordAt(now, float64(ss.ReorderDepth))
		if ss.LagSeconds > worstLag {
			worstLag = ss.LagSeconds
		}
	}
	stats := o.cfg.Engine.Stats()
	st.Series(MetricRetained).RecordAt(now, float64(stats.Retained))
	lost := stats.DroppedLate + stats.ReorderEvictions

	o.mu.Lock()
	var rate, loss float64
	if !o.prevAt.IsZero() {
		dt := now.Sub(o.prevAt).Seconds()
		dIn := stats.Ingested - o.prevIngested
		if dt > 0 {
			rate = float64(dIn) / dt
		}
		if dIn > 0 {
			loss = float64(lost-o.prevLost) / float64(dIn)
		}
	}
	o.prevAt = now
	o.prevIngested = stats.Ingested
	o.prevLost = lost
	o.mu.Unlock()

	st.Series(MetricRecordsPerSecond).RecordAt(now, rate)
	st.Series(MetricLossRate).RecordAt(now, loss)
	o.rps.Set(rate)
	o.lossRate.Set(loss)
	if ck := o.cfg.Checkpoints; ck != nil {
		st.Series(MetricCheckpointAgeSeconds).RecordAt(now, ck.AgeSeconds())
	}
	o.rules.Eval(RuleFreshness, worstLag)
	o.rules.Eval(RuleLoss, loss)
}

// SampleLandscape takes one landscape-plane sample: a full Snapshot
// reduced to totals, delta and estimator disagreement, recorded into the
// store and the history ring, then evaluates the disagreement rule. A
// snapshot error is logged and skipped — observation must not kill the
// observed.
func (o *Observatory) SampleLandscape() {
	now := o.cfg.Clock()
	land, err := o.cfg.Engine.Snapshot()
	if err != nil {
		o.cfg.Logger.Error("landscape sample failed", "err", err)
		return
	}
	estimates, disagreement := setTotals(land)

	st := o.cfg.Store
	st.Series(MetricLandscapeTotal).RecordAt(now, land.Total)
	st.Series(MetricLandscapeServers).RecordAt(now, float64(len(land.Servers)))
	st.Series(MetricDisagreement).RecordAt(now, disagreement)
	for name, total := range estimates {
		st.Series(series.Name(MetricEstimateTotal, "estimator", name)).RecordAt(now, total)
	}

	o.mu.Lock()
	var delta float64
	if o.hasPrevTotal {
		delta = land.Total - o.prevTotal
	}
	o.prevTotal = land.Total
	o.hasPrevTotal = true
	pt := HistoryPoint{
		T:            now.UnixMilli(),
		Total:        land.Total,
		Servers:      len(land.Servers),
		Delta:        delta,
		Estimates:    estimates,
		Disagreement: disagreement,
	}
	o.history = append(o.history, pt)
	if len(o.history) > o.cfg.HistoryPoints {
		o.history = o.history[len(o.history)-o.cfg.HistoryPoints:]
	}
	o.mu.Unlock()

	st.Series(MetricLandscapeDelta).RecordAt(now, delta)
	o.lsTotal.Set(land.Total)
	o.lsServers.Set(float64(len(land.Servers)))
	o.lsDelta.Set(delta)
	o.lsDisagree.Set(disagreement)
	o.rules.Eval(RuleDisagreement, disagreement)
}

// setTotals sums every estimator of the landscape's set over its servers
// (the first is the landscape's own Total) and returns the totals by name
// with the disagreement: (max − min) / mean over the set's distinct
// estimators, 0 with fewer than two or a non-positive mean. Dimensionless,
// so one threshold works across families of very different population
// scales.
func setTotals(land *core.Landscape) (totals map[string]float64, disagreement float64) {
	totals = map[string]float64{land.Estimator: land.Total}
	lo, hi, sum := land.Total, land.Total, land.Total
	for i, name := range land.Estimators {
		if _, seen := totals[name]; seen {
			continue
		}
		var total float64
		for _, sv := range land.Servers {
			total += sv.Estimates[i]
		}
		totals[name] = total
		lo, hi, sum = math.Min(lo, total), math.Max(hi, total), sum+total
	}
	if mean := sum / float64(len(totals)); len(totals) > 1 && mean > 0 {
		disagreement = (hi - lo) / mean
	}
	return totals, disagreement
}

// HistoryJSON renders the history ring — the /landscape/history payload.
func (o *Observatory) HistoryJSON() ([]byte, error) {
	o.mu.Lock()
	pts := make([]HistoryPoint, len(o.history))
	copy(pts, o.history)
	o.mu.Unlock()
	return json.MarshalIndent(historyJSON{
		IntervalMS: o.cfg.HistoryInterval.Milliseconds(),
		Family:     o.cfg.Engine.cfg.Core.Family.Name,
		Estimator:  o.cfg.Engine.EstimatorName(),
		Points:     pts,
	}, "", "  ")
}

// StatusLine renders a one-line terminal status for botmeter -follow
// -watch: watermark lag, ingest rate and the rule states.
func (o *Observatory) StatusLine() string {
	stats := o.cfg.Engine.Stats()
	lag := o.cfg.Engine.WatermarkLagSeconds()
	o.mu.Lock()
	var rate float64
	if st := o.cfg.Store.Series(MetricRecordsPerSecond); st != nil {
		if pt, ok := st.Last(); ok {
			rate = pt.V
		}
	}
	o.mu.Unlock()
	drift := "n/a"
	if o.rules.Len() > 0 {
		drift = "ok"
		if firing := o.rules.Firing(); len(firing) > 0 {
			parts := make([]string, len(firing))
			for i, v := range firing {
				parts[i] = v.Rule
			}
			drift = "DEGRADED(" + strings.Join(parts, ",") + ")"
		}
	}
	return fmt.Sprintf("lag %.1fs | %.0f rec/s | %d matched | %d epochs | %s",
		lag, rate, stats.Matched, stats.EpochsClosed, drift)
}
