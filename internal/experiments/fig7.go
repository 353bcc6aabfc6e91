package experiments

import (
	"fmt"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/enterprise"
	"botmeter/internal/estimators"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/stats"
	"botmeter/internal/trace"
)

// Fig7Config tunes the enterprise-trace evaluation (Figure 7 + Table II).
type Fig7Config struct {
	// Days is the trace length (the paper spans a year; default 60 keeps
	// regeneration minutes-scale while preserving every qualitative
	// comparison).
	Days int
	// Seed drives the trace.
	Seed uint64
	// Scale shrinks DGA pools (1 = paper parameters).
	Scale float64
	// BenignClients / BenignLookupsPerClient size the background load.
	BenignClients          int
	BenignLookupsPerClient float64
	// Workers bounds the per-day analysis parallelism: the daily windows
	// of one (family, estimator) series are analysed concurrently, each
	// day on its own BotMeter instance (0 = one worker per CPU, 1 =
	// sequential). Daily estimates are pure functions of the trace and the
	// day index, so any worker count yields byte-identical series.
	Workers int
	// Stages, when non-nil, accumulates per-stage wall/alloc timings
	// (trace generation vs per-family analysis) for `benchgen -timings`.
	Stages *obs.StageSet
	// Obs, when non-nil, exports experiments_parallel_workers,
	// experiments_trials_total and per-trial latency histograms (one
	// "trial" = one analysed day).
	Obs *obs.Registry
}

func (c Fig7Config) withDefaults() Fig7Config {
	if c.Days <= 0 {
		c.Days = 60
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.BenignClients <= 0 {
		c.BenignClients = 500
	}
	if c.BenignLookupsPerClient <= 0 {
		c.BenignLookupsPerClient = 20
	}
	return c
}

// Fig7Series is one line of Figure 7: daily truth and daily estimates for
// one (family, estimator) pair.
type Fig7Series struct {
	Family    string
	Model     string
	Estimator string
	Truth     []int
	Estimates []float64
}

// Errors returns the daily AREs, skipping zero-truth days (the paper's
// charts likewise only plot days with observed activity).
func (s Fig7Series) Errors() []float64 {
	out := make([]float64, 0, len(s.Truth))
	for i, n := range s.Truth {
		if n == 0 {
			continue
		}
		out = append(out, stats.ARE(s.Estimates[i], float64(n)))
	}
	return out
}

// fig7Infections returns the paper's three real-world families with their
// per-family estimators: newGoZ (AR → MB), Ramnit (AU → MP), Qakbot
// (AU → MP); MT is evaluated on each as the baseline.
func fig7Infections(cfg Fig7Config) []enterprise.Infection {
	return []enterprise.Infection{
		{Spec: ScaledSpec(dga.NewGoZ(), cfg.Scale), Seed: cfg.Seed ^ 0x90, MeanActive: 60, Volatility: 0.5},
		{Spec: ScaledSpec(dga.Ramnit(), cfg.Scale), Seed: cfg.Seed ^ 0x91, MeanActive: 40, Volatility: 0.6},
		{Spec: ScaledSpec(dga.Qakbot(), cfg.Scale), Seed: cfg.Seed ^ 0x92, MeanActive: 15, Volatility: 0.7},
	}
}

// Figure7 generates the enterprise trace and produces the daily series for
// every (family, estimator) pair.
func Figure7(cfg Fig7Config) ([]Fig7Series, error) {
	cfg = cfg.withDefaults()
	infections := fig7Infections(cfg)
	genStage := cfg.Stages.Start("fig7:generate")
	tr, err := enterprise.Generate(enterprise.Config{
		Days:                   cfg.Days,
		Seed:                   cfg.Seed,
		BenignClients:          cfg.BenignClients,
		BenignLookupsPerClient: cfg.BenignLookupsPerClient,
		Granularity:            sim.Second,
		Infections:             infections,
	})
	genStage.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: fig7: %w", err)
	}
	days := openDaily(tr, "fig7", cfg.Workers, cfg.Obs, cfg.Stages)
	defer days.close()

	var series []Fig7Series
	for _, inf := range infections {
		// One Analyze per day produces both of the family's series, the
		// model-specific estimator's and MT's.
		set := []estimators.Estimator{estimators.ForModel(inf.Spec), estimators.NewTiming()}
		famStage := cfg.Stages.Start("fig7:analyze:" + inf.Spec.Name)
		estimates, err := days.estimates(inf, set)
		famStage.End()
		if err != nil {
			return nil, err
		}
		for i, est := range set {
			s := Fig7Series{
				Family:    inf.Spec.Name,
				Model:     inf.Spec.ModelName(),
				Estimator: est.Name(),
				Truth:     tr.GroundTruth[inf.Spec.Name],
			}
			for _, day := range estimates {
				s.Estimates = append(s.Estimates, day[i])
			}
			series = append(series, s)
		}
	}
	return series, nil
}

// dailyTrace is an enterprise trace opened for the one per-day analysis
// loop Figure 7 and the re-activation experiment share.
type dailyTrace struct {
	tr *enterprise.Trace
	// observed is the trace time-sorted once, so per-day windows are sliced
	// with the binary-search fast path — the full-trace sortedness scan
	// inside Window ran once per (family, estimator, day) before, which at a
	// season-long horizon dominated the analysis loop.
	observed trace.Observed
	artifact string
	workers  int
	reg      *obs.Registry
	stages   *obs.StageSet
}

func openDaily(tr *enterprise.Trace, artifact string, workers int, reg *obs.Registry, stages *obs.StageSet) *dailyTrace {
	observed := tr.Observed
	if !observed.IsSorted() {
		observed.Sort()
	}
	return &dailyTrace{tr: tr, observed: observed, artifact: artifact, workers: workers, reg: reg, stages: stages}
}

// close recycles the trace's intern table, once every series is built.
func (d *dailyTrace) close() { d.tr.Close() }

// estimates analyses one infection day by day with every estimator of set
// in one Analyze a day, and returns each day's figures behind the trace's
// local server, in set order. The days fan out across the worker pool, each
// on its own BotMeter instance so no lazily built matcher state is shared;
// every day maps to a distinct epoch, so no cross-day matcher reuse is
// lost, and a daily estimate is a pure function of the trace and the day
// index, so any worker count yields identical series. The trace carries
// each family's symbolized pool cache: matched records resolve by domain ID
// and no day regenerates pools.
func (d *dailyTrace) estimates(inf enterprise.Infection, set []estimators.Estimator) ([][]float64, error) {
	return runTrials(d.workers, d.reg, d.artifact, d.tr.Days, func(day int) ([]float64, error) {
		bm, err := core.New(core.Config{
			Family:      inf.Spec,
			Seed:        inf.Seed,
			Pools:       d.tr.Pools[inf.Spec.Name],
			Granularity: sim.Second,
			Estimators:  set,
			Stages:      d.stages,
		})
		if err != nil {
			return nil, err
		}
		w := sim.Window{Start: sim.Time(day) * sim.Day, End: sim.Time(day+1) * sim.Day}
		land, err := bm.Analyze(d.observed.WindowSorted(w), w)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s day %d: %w", d.artifact, inf.Spec.Name, day, err)
		}
		return land.Estimates(d.tr.LocalServer), nil
	})
}

// TableIIRow summarises one (family, estimator) pair as mean ± std ARE —
// the paper's Table II format.
type TableIIRow struct {
	Family    string
	Model     string
	Estimator string
	Summary   stats.Summary
	// MeanCI is a 95% percentile-bootstrap interval on the mean ARE — a
	// reproducibility aid the paper's Table II lacks.
	MeanCI stats.CI
}

// TableII derives the accuracy table from Figure 7 series.
func TableII(series []Fig7Series) []TableIIRow {
	rows := make([]TableIIRow, 0, len(series))
	for _, s := range series {
		errs := s.Errors()
		rows = append(rows, TableIIRow{
			Family:    s.Family,
			Model:     s.Model,
			Estimator: s.Estimator,
			Summary:   stats.Summarize(errs),
			MeanCI:    stats.BootstrapMeanCI(errs, 0.95, 2000, hash64(s.Family+s.Estimator)),
		})
	}
	return rows
}
