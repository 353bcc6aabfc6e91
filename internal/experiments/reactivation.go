package experiments

import (
	"fmt"
	"strings"

	"botmeter/internal/dga"
	"botmeter/internal/enterprise"
	"botmeter/internal/estimators"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/stats"
)

// ReactivationConfig tunes the persistent-bot extension experiment.
//
// The paper's workload model (§V-A) activates each bot exactly once per
// epoch. Real crimeware loops: a bot that fails to reach its botmaster
// retries the same day's domain list after a back-off. This experiment
// quantifies what that does to each estimator — it is the mechanism behind
// the paper's Table II observation that MT's real-trace error can be
// "arbitrarily bad" (1.5–4.3) while MB stays accurate, which the clean
// once-per-epoch workload alone does not reproduce.
type ReactivationConfig struct {
	// Days is the trace length (default 10).
	Days int
	// Seed drives the trace.
	Seed uint64
	// MeanActive is the daily active population (default 20 — the
	// moderate regime of the paper's Figure 7).
	MeanActive float64
	// Backoff is the retry interval (default 3 h).
	Backoff sim.Time
	// Workers bounds the per-day analysis parallelism (0 = one worker per
	// CPU, 1 = sequential); the rows are identical for any value.
	Workers int
	// Obs, when non-nil, exports the parallel-engine metrics.
	Obs *obs.Registry
}

func (c ReactivationConfig) withDefaults() ReactivationConfig {
	if c.Days <= 0 {
		c.Days = 10
	}
	if c.MeanActive <= 0 {
		c.MeanActive = 20
	}
	if c.Backoff <= 0 {
		c.Backoff = 3 * sim.Hour
	}
	return c
}

// ReactivationRow summarises one estimator's accuracy under persistent
// re-activation.
type ReactivationRow struct {
	Estimator string
	Mode      string // how the estimator was configured
	Summary   stats.Summary
	// MeanBias is the signed mean of (estimate-truth)/truth: positive =
	// overcounting (the paper's real-trace MT signature).
	MeanBias float64
}

// Reactivation runs newGoZ bots that loop until reaching a C2 server and
// evaluates three estimator configurations: the default MB (per-TTL
// evaluation with exact-extent dedup), the whole-epoch MB (the paper's
// original distinct-set formulation, loop-immune at moderate populations
// but saturation-prone at large ones), and MT.
func Reactivation(cfg ReactivationConfig) ([]ReactivationRow, error) {
	cfg = cfg.withDefaults()
	inf := enterprise.Infection{
		Spec:            dga.NewGoZ(),
		Seed:            cfg.Seed ^ 0x9f,
		MeanActive:      cfg.MeanActive,
		Volatility:      0.5,
		ReactivateEvery: cfg.Backoff,
	}
	tr, err := enterprise.Generate(enterprise.Config{
		Days:          cfg.Days,
		Seed:          cfg.Seed,
		BenignClients: 200,
		Granularity:   sim.Second,
		Infections:    []enterprise.Infection{inf},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: reactivation: %w", err)
	}

	days := openDaily(tr, "reactivation", cfg.Workers, cfg.Obs, nil)
	defer days.close()
	return reactivationRows(days, inf)
}

// reactivationRows analyses the trace's days once each, with the three
// configurations as one estimator set, and summarises each configuration.
func reactivationRows(days *dailyTrace, inf enterprise.Infection) ([]ReactivationRow, error) {
	wholeEpoch := estimators.NewBernoulli()
	wholeEpoch.DisableTTLPartition = true
	set := []estimators.Estimator{estimators.NewBernoulli(), wholeEpoch, estimators.NewTiming()}
	modes := []string{"per-TTL + extent dedup (default)", "whole-epoch distinct set (paper's MB)", "Algorithm 1"}
	estimates, err := days.estimates(inf, set)
	if err != nil {
		return nil, err
	}
	rows := make([]ReactivationRow, 0, len(set))
	for i, est := range set {
		var errs, biases []float64
		for day, truth := range days.tr.GroundTruth[inf.Spec.Name] {
			if truth == 0 {
				continue
			}
			got := estimates[day][i]
			errs = append(errs, stats.ARE(got, float64(truth)))
			biases = append(biases, (got-float64(truth))/float64(truth))
		}
		rows = append(rows, ReactivationRow{
			Estimator: est.Name(),
			Mode:      modes[i],
			Summary:   stats.Summarize(errs),
			MeanBias:  stats.Mean(biases),
		})
	}
	return rows, nil
}

// RenderReactivation prints the extension experiment's table.
func RenderReactivation(rows []ReactivationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — persistent re-activation loops (newGoZ, same-barrel retries)\n")
	fmt.Fprintf(&b, "%-5s %-38s %18s %10s\n", "est", "mode", "ARE", "bias")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %-38s %8.3f ± %6.3f %+9.2f\n",
			r.Estimator, r.Mode, r.Summary.Mean, r.Summary.Std, r.MeanBias)
	}
	b.WriteString("\nReading: retries replay the same domain list, so MT manufactures a new\n")
	b.WriteString("candidate bot per replay wave (positive bias — the paper's real-trace\n")
	b.WriteString("signature), while the distinct-NXD set barely changes, keeping the\n")
	b.WriteString("whole-epoch Bernoulli estimator accurate at moderate populations.\n")
	return b.String()
}
