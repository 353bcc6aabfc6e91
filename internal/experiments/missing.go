package experiments

import (
	"fmt"
	"strings"

	"botmeter/internal/estimators"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// MissingObservations is the missing-observations robustness experiment —
// the abstract's "resilient against noisy and missing observations" claim
// along the axis Figure 6 does NOT sweep: records lost at the vantage
// point itself (collector drops, log rotation, packet loss on the tap)
// rather than domains missed by D³. It sweeps uniform record loss
// ∈ {0, 10 … 50}% on AU (MT, MP) and AR (MT, MB and two gap-tolerant MBs);
// a point's X is the drop rate.
func MissingObservations(cfg SweepConfig) ([]SweepPoint, error) {
	cfg = cfg.withDefaults(5, 64)
	drops := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	var out []SweepPoint
	for _, model := range []string{"AU", "AR"} {
		spec, err := modelSpec(model, cfg.Scale)
		if err != nil {
			return nil, err
		}
		ests := estimatorsFor(model, "")
		if model == "AR" {
			tolerant := estimators.NewBernoulli()
			tolerant.GapTolerance = 2
			adaptive := estimators.NewBernoulli()
			adaptive.AdaptiveGapTolerance = true
			ests = append(ests, tolerant, adaptive)
		}
		pts, err := row{
			cfg: cfg, artifact: "missing", seedLabel: model,
			point: SweepPoint{Model: model}, spec: spec, ests: ests,
		}.sweep(drops, func(p *trialParams, i, _ int) { dropRecords(p, drops[i]) })
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}

// dropRecords makes the trial lose each border record independently with
// probability rate before the analysis sees it: one draw per record, in
// emission order.
func dropRecords(p *trialParams, rate float64) {
	if rate <= 0 {
		return
	}
	rng := sim.NewRNG(p.seed ^ 0xbad)
	p.observed = func(rec trace.ObservedRecord) (trace.ObservedRecord, bool) {
		return rec, rng.Float64() >= rate
	}
}

// RenderMissingObs prints the sweep.
func RenderMissingObs(points []SweepPoint) string {
	var b strings.Builder
	b.WriteString("Extension — vantage-point record loss (uniform drops of observed lookups)\n")
	fmt.Fprintf(&b, "%-6s %-5s %8s %8s %8s %8s\n", "model", "est", "drop", "p25", "p50", "p75")
	for _, p := range points {
		fmt.Fprintf(&b, "%-6s %-5s %7.0f%% %8.3f %8.3f %8.3f\n",
			p.Model, p.Estimator, p.X*100, p.ARE.P25, p.ARE.P50, p.ARE.P75)
	}
	return b.String()
}
