// Package experiments regenerates every table and figure of the paper's
// §V evaluation: the five Figure 6 accuracy sweeps over synthetic traffic,
// the Figure 7 daily-population series over the synthetic enterprise
// trace, Table I (DGA parameters) and Table II (real-trace estimator
// accuracy). Each artifact has a Go API (used by the benchmarks in
// bench_test.go) and a text/CSV rendering (used by cmd/benchgen).
package experiments

import (
	"fmt"

	"botmeter/internal/dga"
	"botmeter/internal/estimators"
	"botmeter/internal/sim"
)

// modelSpec returns the Table I prototype for a model shorthand, scaled.
func modelSpec(model string, scale float64) (dga.Spec, error) {
	var s dga.Spec
	switch model {
	case "AU":
		s = dga.Murofet()
	case "AS":
		s = dga.ConfickerC()
	case "AR":
		s = dga.NewGoZ()
	case "AP":
		s = dga.Necurs()
	default:
		return dga.Spec{}, fmt.Errorf("experiments: unknown model %q", model)
	}
	return ScaledSpec(s, scale), nil
}

// scaledFloor scales n by the factor and clamps to a minimum.
func scaledFloor(n int, scale float64, floor int) int {
	v := int(float64(n) * scale)
	if v < floor {
		v = floor
	}
	return v
}

// ScaledSpec shrinks a spec's pool and barrel by the given factor
// (1 = unchanged), preserving the θ∃ / registered-domain counts and the
// query pacing. All three pool classes scale: drain-and-replenish shrinks
// its NXD pool, sliding-window its per-day generation volume, and the
// multiple-mixture its useful and noise pools; the barrel's ThetaQ always
// scales with them so the per-bot query budget stays proportional to the
// pool. Used to keep CI runtimes bounded; the benchmark harness runs
// Scale 1.
func ScaledSpec(s dga.Spec, scale float64) dga.Spec {
	if scale == 1 {
		return s
	}
	switch pool := s.Pool.(type) {
	case dga.DrainReplenish:
		pool.NX = scaledFloor(pool.NX, scale, 10)
		s.Pool = pool
	case dga.SlidingWindow:
		// Keep at least one fresh domain per day beyond the registered
		// ones so the window still slides.
		pool.PerDay = scaledFloor(pool.PerDay, scale, pool.C2+1)
		s.Pool = pool
	case dga.MultipleMixture:
		pool.UsefulNX = scaledFloor(pool.UsefulNX, scale, 10)
		if len(pool.NoiseSizes) > 0 {
			sizes := make([]int, len(pool.NoiseSizes))
			for i, n := range pool.NoiseSizes {
				sizes[i] = scaledFloor(n, scale, 10)
			}
			pool.NoiseSizes = sizes
		}
		s.Pool = pool
	default:
		// Unknown pool class: leave the pool alone but still scale the
		// barrel below so the query budget tracks the caller's intent.
	}
	s.ThetaQ = scaledFloor(s.ThetaQ, scale, 5)
	return s
}

// estimatorsFor returns the estimators the paper applies to a model: MT
// for every model, plus MP for AU and MB for AR. On the detection-window
// panel (e), AR additionally runs MB* — the paper-faithful MB variant that
// does not exploit knowledge of the detected set — so the output shows both
// the paper's original degradation and the detection-aware improvement.
func estimatorsFor(model, panel string) []estimators.Estimator {
	ests := []estimators.Estimator{estimators.NewTiming()}
	switch model {
	case "AU":
		ests = append(ests, estimators.NewPoisson())
	case "AR":
		ests = append(ests, estimators.NewBernoulli())
		if panel == "e" {
			unaware := estimators.NewBernoulli()
			unaware.DisableDetectionAwareness = true
			ests = append(ests, unaware)
		}
	}
	return ests
}

// runPanel evaluates one Figure 6 panel: one row per model, swept over xs
// with the trial edited by mutate.
func runPanel(cfg SweepConfig, panel, sweep string, xs []float64, mutate func(*trialParams, float64)) ([]SweepPoint, error) {
	cfg = cfg.withDefaults(10, 64)
	models := cfg.Models
	if len(models) == 0 {
		models = []string{"AU", "AS", "AR", "AP"}
	}
	var out []SweepPoint
	for _, model := range models {
		spec, err := modelSpec(model, cfg.Scale)
		if err != nil {
			return nil, err
		}
		pts, err := row{
			cfg: cfg, artifact: "fig6", seedLabel: panel + model,
			point: SweepPoint{Panel: panel, Sweep: sweep, Model: model},
			spec:  spec, ests: estimatorsFor(model, panel),
		}.sweep(xs, func(p *trialParams, i, _ int) { mutate(p, xs[i]) })
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}

// Figure6a sweeps the bot population N ∈ {16, 32, 64, 128, 256}.
func Figure6a(cfg SweepConfig) ([]SweepPoint, error) {
	return runPanel(cfg, "a", "DGA-bot population (N)",
		[]float64{16, 32, 64, 128, 256},
		func(p *trialParams, x float64) { p.population = int(x) })
}

// Figure6b sweeps the observation window length ∈ {1, 2, 4, 8, 16} epochs.
func Figure6b(cfg SweepConfig) ([]SweepPoint, error) {
	return runPanel(cfg, "b", "Length of observation window (# epoch)",
		[]float64{1, 2, 4, 8, 16},
		func(p *trialParams, x float64) { p.windowEpochs = int(x) })
}

// Figure6c sweeps the negative cache TTL ∈ {20, 40, 80, 160, 320} minutes.
func Figure6c(cfg SweepConfig) ([]SweepPoint, error) {
	return runPanel(cfg, "c", "Negative cache TTL (min)",
		[]float64{20, 40, 80, 160, 320},
		func(p *trialParams, x float64) { p.negTTL = sim.Time(x) * sim.Minute })
}

// Figure6d sweeps the activation-rate dynamics σ ∈ {0.5 … 2.5}.
func Figure6d(cfg SweepConfig) ([]SweepPoint, error) {
	return runPanel(cfg, "d", "Dynamics of bot activation rate (σ)",
		[]float64{0.5, 1, 1.5, 2, 2.5},
		func(p *trialParams, x float64) { p.sigma = x })
}

// Figure6e sweeps the D³ miss rate ∈ {10 … 50}%.
func Figure6e(cfg SweepConfig) ([]SweepPoint, error) {
	return runPanel(cfg, "e", "Missing rate of D3 algorithm (%)",
		[]float64{10, 20, 30, 40, 50},
		func(p *trialParams, x float64) { p.missRate = x / 100 })
}

// Figure6 runs all five panels.
func Figure6(cfg SweepConfig) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, f := range []func(SweepConfig) ([]SweepPoint, error){
		Figure6a, Figure6b, Figure6c, Figure6d, Figure6e,
	} {
		pts, err := f(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}
