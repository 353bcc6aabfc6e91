package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"botmeter/internal/botnet"
	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/experiments"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// Size of one batch-eval pass: Figure 6(a) at one trial per point (5
// populations × 4 models = 20 trial runs), one call per model, then Figure 7
// over a few days. The issue's Trials 16 and Days 60 make one 15 s pass; the
// contract leaves about 16 s, and the run needs many short samples to find
// the undisturbed ones (see calmCost), so a pass is well under a second.
const (
	batchTrials     = 1
	batchDays       = 6
	batchPopulation = 64
	goldenSeed      = 2016
)

// batchModels are Figure 6(a)'s DGA models, with the Table I family of each.
var batchModels = []struct {
	name string
	spec dga.Spec
}{
	{"AU", dga.Murofet()}, {"AS", dga.ConfickerC()}, {"AR", dga.NewGoZ()}, {"AP", dga.Necurs()},
}

// batchPass is one rendering of the two artifacts and what it cost.
type batchPass struct {
	render  string
	trials  int     // Figure 6(a) trial runs
	seconds float64 // the whole pass
}

// runBatchPass renders Figure 6(a), model by model, and Figure 7 once,
// filing each call's wall and CPU seconds under s. With stages it also reads
// the program's own stage table (the traced pass).
func runBatchPass(e *env, tr *tracer, s samples, workers int, stages *obs.StageSet) (*batchPass, error) {
	p := &batchPass{}
	fig6 := experiments.Fig6Config{Trials: batchTrials, Population: batchPopulation, Seed: e.seed, Scale: 1, Workers: workers, Stages: stages}
	// Figure 7's trace is an autoregressive walk of the active populations:
	// between seeds its volume, and with it the time, differs by a third.
	// It would measure the seed, so it always takes the golden one, and
	// --seed drives the Figure 6(a) trials, whose volume is fixed.
	fig7 := experiments.Fig7Config{Days: batchDays, Seed: goldenSeed, Scale: 1, Workers: workers, Stages: stages}
	if e.short {
		fig6.Scale, fig7.Days, fig7.Scale, fig7.BenignClients = 0.1, 3, 0.1, 50
	}
	start := time.Now()
	var render strings.Builder
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, m := range batchModels {
		fig6.Models = []string{m.name}
		var points []experiments.Fig6Point
		cpu0 := selfCPU()
		d, err := tr.timed("experiments.figure6a."+m.name, func() (err error) {
			points, err = experiments.Figure6a(fig6)
			return err
		})
		if err != nil {
			return nil, err
		}
		s.add("fig6."+m.name, d.Seconds())
		s.add("fig6cpu."+m.name, selfCPU()-cpu0)
		// One trial run per (population, trial); the model's estimators
		// share it, so the points over-count.
		seen := map[float64]bool{}
		for _, pt := range points {
			seen[pt.X] = true
		}
		p.trials += len(seen) * fig6.Trials
		render.WriteString(experiments.RenderFig6(points))
	}
	runtime.ReadMemStats(&m1)
	s.add("mallocs_per_trial", float64(m1.Mallocs-m0.Mallocs)/float64(p.trials))
	s.add("alloc_mb_per_trial", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(p.trials)/(1<<20))

	var series []experiments.Fig7Series
	d, err := tr.timed("experiments.figure7", func() (err error) {
		series, err = experiments.Figure7(fig7)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.add("fig7", d.Seconds())
	render.WriteString(experiments.RenderFig7(series))
	p.render, p.seconds = render.String(), time.Since(start).Seconds()
	var analyze float64
	for _, st := range stages.Stats() {
		switch {
		case st.Name == "fig7:generate":
			s.add("fig7_generate", st.Wall.Seconds())
		case strings.HasPrefix(st.Name, "fig7:analyze:"):
			analyze += st.Wall.Seconds()
		}
	}
	if stages != nil {
		s.add("fig7_analyze", analyze)
	}
	return p, nil
}

// dissectTrial runs one Figure 6(a)-style trial of spec through the public
// calls the experiment makes, timing each: pool generation, simulation, and
// the analysis with its stage table. Samples are filed under name.<model>.
func dissectTrial(tr *tracer, s samples, model string, spec dga.Spec, seed uint64) error {
	add := func(name string, v float64) { s.add(name+"."+model, v) }
	tab := symtab.Get()
	defer tab.Release()
	pools := dga.NewPoolCache(spec.Pool, seed, tab)
	d, _ := tr.timed("dga.pool", func() error { pools.For(0); return nil })
	add("pool", d.Seconds())
	net := dnssim.NewNetwork(dnssim.NetworkConfig{LocalServers: 1, PositiveTTL: sim.Day, NegativeTTL: 2 * sim.Hour, Granularity: 100 * sim.Millisecond})
	runner, err := botnet.NewRunner(botnet.Config{
		Spec: spec, Seed: seed, BotsPerServer: map[string]int{"local-00": batchPopulation}, Pools: pools,
	}, net)
	if err != nil {
		return err
	}
	w := sim.Window{Start: 0, End: sim.Day}
	d, err = tr.timed("botnet.simulate", func() error {
		_, err := runner.Run(w)
		return err
	})
	if err != nil {
		return err
	}
	add("simulate", d.Seconds())
	local, ok := net.Local("local-00")
	if !ok {
		return fmt.Errorf("dissected trial: the network has no local-00")
	}
	add("cache_hit_ratio", local.CacheHitRate())
	observed := net.Border.Observed()
	net.ReleaseCaches()
	add("observed_records", float64(len(observed)))
	stages := obs.NewStageSet()
	bm, err := core.New(core.Config{Family: spec, Seed: seed, Pools: pools, Granularity: 100 * sim.Millisecond, SecondOpinion: true, Stages: stages})
	if err != nil {
		return err
	}
	d, err = tr.timed("core.analyze", func() error {
		_, err := bm.Analyze(observed, w)
		return err
	})
	if err != nil {
		return err
	}
	records := float64(max(len(observed), 1))
	add("analyze", d.Seconds())
	add("analyze_per_record", d.Seconds()/records)
	for _, st := range stages.Stats() {
		switch st.Name {
		case "match":
			add("match_per_record", st.Wall.Seconds()/records)
		case "estimate:MP", "estimate:MB", "estimate:MT":
			s.add(st.Name, st.Wall.Seconds()/float64(max(st.Count, 1)))
		}
	}
	return nil
}

// golden holds the SHA-256 of the rendered artifacts at goldenSeed.
type golden struct {
	Full  string `json:"full"`
	Short string `json:"short"`
}

func goldenPath(root string) string {
	return filepath.Join(root, "bench", "testdata", "batch_eval_golden.json")
}

// runBatchEval is the batch-eval workload: the paper's §V loop.
func runBatchEval(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	// Set-up is a whole pass on every CPU: it warms the process (heap,
	// shared log-combinatorics tables) and renders the reference that every
	// timed single-worker pass must reproduce byte for byte.
	var ref *batchPass
	setup, err := e.medianSetup(func() (err error) {
		ref, err = runBatchPass(e, nil, samples{}, 0, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256([]byte(ref.render))
	got := hex.EncodeToString(digest[:])
	if e.seed == goldenSeed {
		var g golden
		data, err := os.ReadFile(goldenPath(e.root))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &g); err != nil {
			return nil, fmt.Errorf("%s: %w", goldenPath(e.root), err)
		}
		want := g.Full
		if e.short {
			want = g.Short
		}
		out.check(got == want, "rendered artifacts hash to %s, the golden for seed %d is %s", got, goldenSeed, want)
	}

	plain, traced, layers := samples{}, samples{}, samples{}
	var plainSeconds, tracedSeconds []float64
	var rss float64
	start := time.Now()
	for ctx.Err() == nil {
		passStart := time.Now()
		p, err := runBatchPass(e, nil, plain, 1, nil)
		if err != nil {
			return nil, err
		}
		out.attempted += int64(p.trials)
		plainSeconds = append(plainSeconds, p.seconds)
		if len(plainSeconds) <= rssPasses {
			rss = selfPeakRSSMB()
		}
		out.check(p.render == ref.render, "pass %d with one worker rendered differently from the all-CPU pass", len(plainSeconds))
		if e.tr != nil {
			t, err := runBatchPass(e, e.tr, traced, 1, obs.NewStageSet())
			if err != nil {
				return nil, err
			}
			tracedSeconds = append(tracedSeconds, t.seconds)
			out.check(t.render == ref.render, "traced pass %d rendered differently", len(tracedSeconds))
			for i, m := range batchModels {
				spec := m.spec
				if e.short {
					spec = experiments.ScaledSpec(spec, 0.1)
				}
				if err := dissectTrial(e.tr, layers, m.name, spec, e.seed+uint64(i)); err != nil {
					return nil, err
				}
			}
		}
		if e.seconds-time.Since(start).Seconds() < time.Since(passStart).Seconds() {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Passes repeat the same work. A model's figure is the undisturbed
	// decile over passes (see calmCost); Figure 6(a)'s is their sum.
	var fig6, fig6CPU float64
	for _, m := range batchModels {
		fig6 += calmCost(plain["fig6."+m.name])
		fig6CPU += calmCost(plain["fig6cpu."+m.name])
	}
	trials := float64(out.attempted) / float64(len(plainSeconds))
	fig7 := calmCost(plain["fig7"])
	out.set("setup_s", setup)
	out.set("ops_per_s", trials/fig6)
	out.set("cpu_us_per_op", fig6CPU*1e6/trials)
	out.set("p50_us", fig7*1e6)
	out.set("rss_mb", rss)

	out.set("trials_per_s", trials/fig6)
	out.set("fig7_s", fig7)
	out.set("batch.allocs_per_trial", median(plain["mallocs_per_trial"]))
	out.set("batch.alloc_mb_per_trial", median(plain["alloc_mb_per_trial"]))
	out.set("parallel.speedup_workers", calmCost(plainSeconds)/ref.seconds)
	if e.tr != nil {
		out.set("trace.overhead_ratio", calmCost(tracedSeconds)/calmCost(plainSeconds))
		out.set("enterprise.generate_ms", ms(calmCost(traced["fig7_generate"])))
		out.set("experiments.fig7_analyze_ms", ms(calmCost(traced["fig7_analyze"])))
		// Means over the four models: the cost of an average trial of the
		// Figure 6(a) mix, so the parts add up to 1/trials_per_s.
		perTrial := func(name string, summarise func([]float64) float64) float64 {
			var total float64
			for _, m := range batchModels {
				total += summarise(layers[name+"."+m.name])
			}
			return total / float64(len(batchModels))
		}
		out.set("dga.pool_ms", ms(perTrial("pool", calmCost)))
		out.set("botnet.simulate_ms", ms(perTrial("simulate", calmCost)))
		out.set("dnssim.cache_hit_ratio", perTrial("cache_hit_ratio", median))
		out.set("trace.observed_records", perTrial("observed_records", median))
		out.set("core.analyze_ms", ms(perTrial("analyze", calmCost)))
		out.set("core.analyze_ns_per_record", perTrial("analyze_per_record", calmCost)*1e9)
		out.set("matcher.match_ns_per_record", perTrial("match_per_record", calmCost)*1e9)
		out.set("estimators.mp_us_per_epoch", calmCost(layers["estimate:MP"])*1e6)
		out.set("estimators.mb_us_per_epoch", calmCost(layers["estimate:MB"])*1e6)
		out.set("estimators.mt_us_per_epoch", calmCost(layers["estimate:MT"])*1e6)
	}
	fmt.Fprintf(e.log, "batch-eval: %d passes of %.0f trials; artifacts sha256 %s\n", len(plainSeconds), trials, got)
	return out, nil
}
