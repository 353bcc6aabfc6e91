package experiments

import (
	"fmt"

	"botmeter/internal/botnet"
	"botmeter/internal/core"
	"botmeter/internal/d3"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/estimators"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/stats"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// SweepConfig tunes a synthetic artifact. The five Figure 6 panels, the
// missing-observations and chaos sweeps and the taxonomy grid run the same
// trial (runTrial) under the same driver (row) and take this one struct.
type SweepConfig struct {
	// Trials is the number of independent runs per point (default 10 for
	// Figure 6, 5 for the extension artifacts).
	Trials int
	// Population is the bot count N where the artifact does not sweep it
	// (default 64; 32 on the taxonomy grid).
	Population int
	// Seed derives all per-trial seeds.
	Seed uint64
	// Scale shrinks DGA pool sizes and barrel sizes for quick runs
	// (1 = the paper's Table I parameters; tests use ≈0.1). The taxonomy
	// grid fixes its own specs and ignores it.
	Scale float64
	// Models restricts Figure 6's DGA models (nil = AU, AS, AR, AP). The
	// extension artifacts fix their own.
	Models []string
	// Workers bounds the trial-level parallelism: trials of one grid point
	// run concurrently on a bounded worker pool (0 = one worker per CPU,
	// 1 = sequential). Per-trial seeds are derived from the trial index
	// alone, and aggregation is canonical (trial order), so any worker
	// count renders byte-identical artifacts.
	Workers int
	// Stages, when non-nil, accumulates per-stage wall/alloc timings
	// (simulate vs estimate) for `benchgen -timings`.
	Stages *obs.StageSet
	// Obs, when non-nil, exports experiments_parallel_workers,
	// experiments_trials_total and per-trial latency histograms.
	Obs *obs.Registry
}

// Fig6Config is the name the repository benchmark builds against.
type Fig6Config = SweepConfig

// withDefaults fills Trials and Population with the calling artifact's
// defaults.
func (c SweepConfig) withDefaults(trials, population int) SweepConfig {
	if c.Trials <= 0 {
		c.Trials = trials
	}
	if c.Population <= 0 {
		c.Population = population
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// SweepPoint is one cell of a sweep: the ARE quartiles of one estimator on
// one DGA model at one axis value.
type SweepPoint struct {
	Panel     string // Figure 6 only: "a".."e"
	Sweep     string // Figure 6 only: human-readable axis label
	Model     string // AU/AS/AR/AP
	Estimator string
	X         float64
	ARE       stats.Quartiles
	Trials    int
}

// Fig6Point is the name the repository benchmark builds against.
type Fig6Point = SweepPoint

// trialParams is the full parameter set for one synthetic run.
type trialParams struct {
	spec         dga.Spec
	population   int
	windowEpochs int
	negTTL       sim.Time
	sigma        float64
	missRate     float64
	granularity  sim.Time
	seed         uint64
	// stage prefixes the trial's two stage names ("fig6:simulate",
	// "chaos:estimate").
	stage  string
	stages *obs.StageSet
	// pools, when non-nil, is the shared symbolized pool cache for this
	// (row, trial) — sweep points of one trial draw identical pools (the
	// per-trial seed does not depend on the swept x), so the sweep generates
	// them once per trial instead of once per grid point. Nil makes
	// runTrial own a private cache.
	pools *dga.PoolCache
	// barrels, when non-nil, is the (row, trial)'s barrel cache, shared for
	// the same reason as pools: a bot's barrel is a function of (spec, seed,
	// epoch, server, bot index), none of which the axis edits. Nil makes
	// every bot draw privately.
	barrels *botnet.BarrelCache
	// network, when non-nil, edits the hierarchy's configuration before the
	// network is built (the chaos sweep's faulty link and hardening).
	network func(*dnssim.NetworkConfig)
	// observed, when non-nil, sees each border record, in emission order,
	// before the analysis does, and returns the record the analysis gets, if
	// it gets one (record loss at the vantage point).
	observed func(trace.ObservedRecord) (trace.ObservedRecord, bool)
}

func defaultTrialParams(spec dga.Spec, population int, seed uint64) trialParams {
	return trialParams{
		spec:         spec,
		population:   population,
		windowEpochs: 1,
		negTTL:       2 * sim.Hour,
		granularity:  100 * sim.Millisecond,
		seed:         seed,
	}
}

// runTrial is the one synthetic trial: it simulates a bot population behind
// one local server, charts the border's records with every estimator as the
// border emits them and returns each estimator's ARE against the realised
// ground truth.
func runTrial(p trialParams, ests []estimators.Estimator) (map[string]float64, error) {
	land, truth, err := chartTrial(p, ests)
	if err != nil {
		return nil, err
	}
	return trialAREs(land, ests, truth), nil
}

// trialAREs maps each estimator of the set to the ARE of its figure for the
// trial's one local server against truth.
func trialAREs(land *core.Landscape, ests []estimators.Estimator, truth float64) map[string]float64 {
	out := make(map[string]float64, len(ests))
	for i, v := range land.Estimates("local-00") {
		out[ests[i].Name()] = stats.ARE(v, truth)
	}
	return out
}

// chartTrial runs runTrial's simulation and analysis and returns the
// landscape with the ground truth, the mean active-bot count over the
// window's epochs.
func chartTrial(p trialParams, ests []estimators.Estimator) (*core.Landscape, float64, error) {
	// One intern table + pool cache per trial: the simulator, the matcher
	// and every estimator below share the same symbolized pool objects, so
	// records resolve by ID end-to-end and each epoch's pool is generated
	// exactly once instead of once per estimator (and, when the sweep
	// supplies p.pools, once per trial instead of once per point).
	pools := p.pools
	if pools == nil {
		tab := symtab.Get()
		defer tab.Release()
		pools = dga.NewPoolCache(p.spec.Pool, p.seed, tab)
	}
	// One chart carries every estimator through one walk per server: each
	// sees the same records in the same order as it would alone
	// (TestSharedTrialEquivalences).
	bm, err := p.meter(ests, pools)
	if err != nil {
		return nil, 0, err
	}
	w := sim.Window{Start: 0, End: sim.Time(p.windowEpochs) * sim.Day}
	chart, err := bm.NewChart(w)
	if err != nil {
		return nil, 0, err
	}

	// The simulate stage matches each border record into the chart as the
	// border emits it.
	simStage := p.stages.Start(p.stage + ":simulate")
	netCfg := dnssim.NetworkConfig{
		LocalServers: 1,
		PositiveTTL:  sim.Day,
		NegativeTTL:  p.negTTL,
		Granularity:  p.granularity,
	}
	if p.network != nil {
		p.network(&netCfg)
	}
	net := dnssim.NewNetwork(netCfg)
	net.Border.Sink = func(rec trace.ObservedRecord) {
		if p.observed != nil {
			var keep bool
			if rec, keep = p.observed(rec); !keep {
				return
			}
		}
		chart.Observe(&rec)
	}
	runner, err := botnet.NewRunner(botnet.Config{
		Spec:          p.spec,
		Seed:          p.seed,
		Activation:    sim.ActivationModel{Sigma: p.sigma},
		BotsPerServer: map[string]int{"local-00": p.population},
		Pools:         pools,
		Barrels:       p.barrels,
	}, net)
	if err != nil {
		return nil, 0, err
	}
	res, err := runner.Run(w)
	simStage.End()
	net.ReleaseCaches()
	if err != nil {
		return nil, 0, err
	}
	var truthSum float64
	for _, n := range res.ActiveBots["local-00"] {
		truthSum += float64(n)
	}
	truth := truthSum / float64(len(res.ActiveBots["local-00"]))

	estStage := p.stages.Start(p.stage + ":estimate")
	defer estStage.End()
	land, err := chart.Landscape()
	if err != nil {
		return nil, 0, err
	}
	return land, truth, nil
}

// meter is the trial's analysis: the family over the trial's pools with
// the set ests, behind the trial's D³ front end.
func (p trialParams) meter(ests []estimators.Estimator, pools *dga.PoolCache) (*core.BotMeter, error) {
	var detection *d3.Window
	if p.missRate > 0 {
		detection = &d3.Window{MissRate: p.missRate, Seed: p.seed ^ 0xd3}
	}
	return core.New(core.Config{
		Family:      p.spec,
		Seed:        p.seed,
		Pools:       pools,
		NegativeTTL: p.negTTL,
		Granularity: p.granularity,
		Estimators:  ests,
		Detection:   detection,
		Stages:      p.stages,
	})
}

// row is one model's row of an artifact: what every axis value of the row
// shares. Everything else an artifact is — its axis values, its edit of the
// trial, its renderer — stays with the artifact.
type row struct {
	cfg SweepConfig
	// artifact prefixes the trial's stage names; with point.Panel it labels
	// the trial-latency histogram.
	artifact string
	// seedLabel separates this row's per-trial seeds from other rows'.
	seedLabel string
	// point carries what every point of the row has in common.
	point SweepPoint
	spec  dga.Spec
	ests  []estimators.Estimator
}

// sweep is the one sweep driver. For each axis value in xs it runs
// cfg.Trials trials on the bounded worker pool — the row's defaults edited
// by mutate, which is told the value's index and the trial's — and returns
// one point per estimator, in axis order then estimator order. Every
// per-trial seed is a function of the trial index only and the quartiles
// are taken over the trials in trial order, so the result is identical for
// any Workers.
//
// Each trial's symbolized pool cache is built once and shared across the
// row: pool generation is a function of (pool model, seed, epoch) only and
// the per-trial seed is x-independent, so every axis value of a trial would
// regenerate byte-identical pools — at Table I scale that regeneration was
// ~10% of a panel's wall time. Intern-table IDs accumulate across the row's
// points instead of restarting per point, which changes no artifact: IDs
// are an in-memory hint, never serialized, and every estimate keys on pool
// positions.
//
// Each trial's barrel cache is shared across the row the same way: a bot's
// barrel is a function of the trial's spec and seed and of (epoch, server,
// bot index), and no axis edit touches spec or seed, so Figure 6(a)'s
// N ∈ {16…256} draws at most 256 barrels per trial instead of up to 496.
func (r row) sweep(xs []float64, mutate func(p *trialParams, point, trial int)) ([]SweepPoint, error) {
	pools := make([]*dga.PoolCache, r.cfg.Trials)
	barrels := make([]*botnet.BarrelCache, r.cfg.Trials)
	for t := range pools {
		tab := symtab.Get()
		defer tab.Release()
		pools[t] = dga.NewPoolCache(r.spec.Pool, trialSeed(r.cfg.Seed, r.seedLabel, t), tab)
		barrels[t] = botnet.NewBarrelCache()
	}
	out := make([]SweepPoint, 0, len(xs)*len(r.ests))
	for i, x := range xs {
		trials, err := runTrials(r.cfg.Workers, r.cfg.Obs, r.artifact+r.point.Panel, r.cfg.Trials, func(trial int) (map[string]float64, error) {
			p := defaultTrialParams(r.spec, r.cfg.Population, trialSeed(r.cfg.Seed, r.seedLabel, trial))
			p.stage, p.stages, p.pools, p.barrels = r.artifact, r.cfg.Stages, pools[trial], barrels[trial]
			mutate(&p, i, trial)
			res, err := runTrial(p, r.ests)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s%s %s x=%v trial %d: %w", r.artifact, r.point.Panel, r.spec.Name, x, trial, err)
			}
			return res, nil
		})
		if err != nil {
			return nil, err
		}
		for j, q := range quartilesByEstimator(r.ests, trials) {
			pt := r.point
			pt.Estimator, pt.X, pt.ARE, pt.Trials = r.ests[j].Name(), x, q, r.cfg.Trials
			out = append(out, pt)
		}
	}
	return out, nil
}

// quartilesByEstimator turns per-trial estimator→ARE maps into one set of
// quartiles per estimator, in estimator order, over the trials in trial
// order.
func quartilesByEstimator(ests []estimators.Estimator, trials []map[string]float64) []stats.Quartiles {
	out := make([]stats.Quartiles, len(ests))
	errs := make([]float64, len(trials))
	for i, est := range ests {
		for t, res := range trials {
			errs[t] = res[est.Name()]
		}
		out[i] = stats.ComputeQuartiles(errs)
	}
	return out
}

// trialSeed derives the per-trial seed. It depends on the trial index and
// the row's label but NOT on the swept x — the property that lets one
// trial's pool cache serve every point of a row. The labels (Figure 6:
// panel+model; missing: model; chaos: "chaos"+model; taxonomy: the spec's
// name) are in every golden.
func trialSeed(seed uint64, label string, trial int) uint64 {
	return seed ^ (uint64(trial)+1)*0x9e3779b97f4a7c15 ^ hash64(label)
}

func hash64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
