package experiments

import (
	"fmt"
	"strings"

	"botmeter/internal/dnssim"
	"botmeter/internal/faults"
	"botmeter/internal/sim"
)

// ChaosPoint is one (model, estimator, fault-rate, hardened?) cell. X is
// the per-datagram loss probability; SERVFAIL bursts and duplication ride
// along at X/4 each.
type ChaosPoint struct {
	SweepPoint
	// Hardened reports whether the hierarchy ran with retries and
	// serve-stale enabled.
	Hardened bool
	// Faults aggregates the injector counters across trials.
	Faults faults.Counters
}

// chaosRates maps a scalar fault rate onto a Rates mix: loss dominates,
// with SERVFAIL bursts and duplication at a quarter of the rate each.
func chaosRates(rate float64) faults.Rates {
	return faults.Rates{Loss: rate, ServFail: rate / 4, Duplicate: rate / 4}
}

// ChaosSweep is the in-process counterpart of the live -chaos pipeline.
// Where the missing-observations experiment deletes records after a clean
// simulation, this one degrades the local→border link itself
// (faults.FaultyUpstream wrapped around the simulated border via
// dnssim.NetworkConfig.WrapUpstream), so losses, SERVFAIL bursts and
// duplicated datagrams distort both what the bots experience and what the
// vantage point records. It sweeps the fault rate ∈ {0, 10, 20, 30}% on AU
// (MT, MP) and AR (MT, MB), and measures every point twice — bare, then
// with the hierarchy hardened (retries + serve-stale) — quantifying how
// much of the paper's accuracy survives an unreliable network and how much
// the resilience machinery buys back. Fault decisions derive from the
// per-trial seed, so a fixed cfg.Seed replays the sweep bit-for-bit.
func ChaosSweep(cfg SweepConfig) ([]ChaosPoint, error) {
	cfg = cfg.withDefaults(5, 64)
	// Every rate is on the axis twice: the even index runs the hierarchy
	// bare, the odd one after it hardened.
	rates := []float64{0, 0, 0.1, 0.1, 0.2, 0.2, 0.3, 0.3}
	var out []ChaosPoint
	for _, model := range []string{"AU", "AR"} {
		spec, err := modelSpec(model, cfg.Scale)
		if err != nil {
			return nil, err
		}
		ests := estimatorsFor(model, "")
		// Each trial's injector is made here and read once the sweep is
		// back; a trial writes its own element only.
		injectors := make([][]*faults.Injector, len(rates))
		for k := range injectors {
			injectors[k] = make([]*faults.Injector, cfg.Trials)
		}
		pts, err := row{
			cfg: cfg, artifact: "chaos", seedLabel: "chaos" + model,
			point: SweepPoint{Model: model}, spec: spec, ests: ests,
		}.sweep(rates, func(p *trialParams, k, trial int) {
			injectors[k][trial] = faultyLink(p, rates[k], k%2 == 1)
		})
		if err != nil {
			return nil, err
		}
		for k := range rates {
			// The fault counters are tallied in trial order.
			var tally faults.Counters
			for _, inj := range injectors[k] {
				c := inj.Counters()
				tally.Passed += c.Passed
				tally.Lost += c.Lost
				tally.Duplicated += c.Duplicated
				tally.ServFails += c.ServFails
				tally.Delayed += c.Delayed
				tally.Blackholed += c.Blackholed
			}
			for _, pt := range pts[k*len(ests) : (k+1)*len(ests)] {
				out = append(out, ChaosPoint{SweepPoint: pt, Hardened: k%2 == 1, Faults: tally})
			}
		}
	}
	return out, nil
}

// faultyLink puts the trial's hierarchy behind a faulty local→border link,
// hardened with retries and serve-stale when asked, and returns the
// link's injector.
func faultyLink(p *trialParams, rate float64, hardened bool) *faults.Injector {
	inj := faults.New(p.seed^0xfa01, chaosRates(rate))
	p.network = func(cfg *dnssim.NetworkConfig) {
		cfg.WrapUpstream = func(u dnssim.Upstream) dnssim.Upstream {
			return faults.NewFaultyUpstream(u, inj)
		}
		if hardened {
			cfg.MaxRetries = 3
			cfg.ServeStale = true
			cfg.StaleTTL = sim.Day
		}
	}
	return inj
}

// RenderChaos prints the sweep.
func RenderChaos(points []ChaosPoint) string {
	var b strings.Builder
	b.WriteString("Extension — estimator accuracy under injected network faults (loss + servfail/4 + dup/4)\n")
	fmt.Fprintf(&b, "%-6s %-5s %6s %-8s %8s %8s %8s   %s\n",
		"model", "est", "fault", "mode", "p25", "p50", "p75", "injected")
	for _, p := range points {
		mode := "bare"
		if p.Hardened {
			mode = "hardened"
		}
		fmt.Fprintf(&b, "%-6s %-5s %5.0f%% %-8s %8.3f %8.3f %8.3f   lost=%d servfail=%d dup=%d\n",
			p.Model, p.Estimator, p.X*100, mode,
			p.ARE.P25, p.ARE.P50, p.ARE.P75,
			p.Faults.Lost, p.Faults.ServFails, p.Faults.Duplicated)
	}
	return b.String()
}
