package experiments

import (
	"math"
	"sync/atomic"
	"testing"

	"botmeter/internal/botnet"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/enterprise"
	"botmeter/internal/estimators"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// TestSharedTrialEquivalences asserts what every synthetic artifact leans
// on now that all of them run runTrial: on a clean trace, under record loss
// and behind a faulty link, bare and hardened, (1) every member of an
// estimator set — MT, MP, and on AR each MB variant missing and Figure 6(e)
// run, MB, MB+g2, MB+ga and MB* — is, bit for bit, the figure the same
// estimator gives when it runs alone; (2) a pool cache shared across a
// row's axis values gives what a trial's private cache gives; (3) records
// resolved by interned ID give what records resolved by name give; (4) a
// barrel cache shared across the axis values gives what private draws give.
// AS and AP are the models whose barrels are permutations.
func TestSharedTrialEquivalences(t *testing.T) {
	conditions := []struct {
		name string
		edit func(*trialParams)
	}{
		{"clean", func(*trialParams) {}},
		{"50% record loss", func(p *trialParams) { dropRecords(p, 0.5) }},
		{"30% faults, bare", func(p *trialParams) { faultyLink(p, 0.3, false) }},
		{"30% faults, hardened", func(p *trialParams) { faultyLink(p, 0.3, true) }},
	}
	for _, model := range []string{"AU", "AS", "AR", "AP"} {
		spec, err := modelSpec(model, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		ests := estimatorsFor(model, "")
		if model == "AR" {
			tolerant, adaptive, unaware := estimators.NewBernoulli(), estimators.NewBernoulli(), estimators.NewBernoulli()
			tolerant.GapTolerance = 2
			adaptive.AdaptiveGapTolerance = true
			unaware.DisableDetectionAwareness = true
			ests = append(ests, tolerant, adaptive, unaware)
		}
		seed := trialSeed(9, model, 0)
		// One pool cache and one barrel cache for all four conditions, as a
		// row shares them across its axis values.
		shared := dga.NewPoolCache(spec.Pool, seed, symtab.New())
		barrels := botnet.NewBarrelCache()
		for _, c := range conditions {
			trial := func(ests []estimators.Estimator, pools *dga.PoolCache, barrels *botnet.BarrelCache, byName bool) map[string]float64 {
				t.Helper()
				p := defaultTrialParams(spec, 48, seed)
				p.pools, p.barrels = pools, barrels
				c.edit(&p)
				if filter := p.observed; byName {
					p.observed = func(rec trace.ObservedRecord) (trace.ObservedRecord, bool) {
						rec.ID = symtab.None
						if filter == nil {
							return rec, true
						}
						return filter(rec)
					}
				}
				out, err := runTrial(p, ests)
				if err != nil {
					t.Fatalf("%s, %s: %v", model, c.name, err)
				}
				return out
			}
			same := func(what string, got, want map[string]float64) {
				t.Helper()
				for _, est := range ests {
					g, ok := got[est.Name()]
					if w := want[est.Name()]; !ok || math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("%s, %s, %s: %s ARE %v, shared trial %v", model, c.name, what, est.Name(), g, w)
					}
				}
			}
			full := trial(ests, shared, barrels, false)
			if len(full) != len(ests) {
				t.Fatalf("%s, %s: trial reported %v, want one ARE per estimator", model, c.name, full)
			}
			for _, est := range ests {
				name := est.Name()
				if solo := trial([]estimators.Estimator{est}, shared, barrels, false); math.Float64bits(solo[name]) != math.Float64bits(full[name]) {
					t.Errorf("%s, %s: %s alone ARE %v, in the set %v", model, c.name, name, solo[name], full[name])
				}
			}
			same("private pool cache", trial(ests, nil, barrels, false), full)
			same("resolved by name", trial(ests, shared, barrels, true), full)
			same("private barrel draws", trial(ests, shared, nil, false), full)

			// The records the trial streamed into its chart, materialised as a
			// trace and analysed in one batch, give the streamed figures.
			p := defaultTrialParams(spec, 48, seed)
			p.pools, p.barrels = shared, barrels
			c.edit(&p)
			var border trace.Observed
			filter := p.observed
			p.observed = func(rec trace.ObservedRecord) (trace.ObservedRecord, bool) {
				if filter != nil {
					var keep bool
					if rec, keep = filter(rec); !keep {
						return rec, false
					}
				}
				border = append(border, rec)
				return rec, true
			}
			land, truth, err := chartTrial(p, ests)
			if err != nil {
				t.Fatalf("%s, %s: %v", model, c.name, err)
			}
			bm, err := p.meter(ests, shared)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := bm.Analyze(border, land.Window)
			if err != nil {
				t.Fatal(err)
			}
			if len(border) == 0 || batch.MatchedLookups != land.MatchedLookups {
				t.Errorf("%s, %s: batch matched %d of %d border records, the chart %d", model, c.name, batch.MatchedLookups, len(border), land.MatchedLookups)
			}
			same("streamed chart", trialAREs(land, ests, truth), full)
			same("materialised border through Analyze", trialAREs(batch, ests, truth), full)
		}
	}
}

// countingUpstream counts the lookups that reach the border.
type countingUpstream struct {
	dnssim.Upstream
	n *int
}

func (c countingUpstream) Resolve(now sim.Time, forwarder, domain string, id symtab.ID) dnssim.Answer {
	*c.n++
	return c.Upstream.Resolve(now, forwarder, domain, id)
}

// TestTrialKeepsNoBorderTrace: a Figure 6(a) trial hands each border record
// to its chart as the border emits it, so after the trial the border holds
// no dataset, though every model's bots reached it.
func TestTrialKeepsNoBorderTrace(t *testing.T) {
	cfg := quickCfg()
	for _, model := range []string{"AU", "AS", "AR", "AP"} {
		spec, err := modelSpec(model, cfg.Scale)
		if err != nil {
			t.Fatal(err)
		}
		p := defaultTrialParams(spec, cfg.Population, trialSeed(cfg.Seed, "a"+model, 0))
		var (
			border  *dnssim.Border
			lookups int
		)
		p.network = func(nc *dnssim.NetworkConfig) {
			nc.WrapUpstream = func(u dnssim.Upstream) dnssim.Upstream {
				border = u.(*dnssim.Border)
				return countingUpstream{u, &lookups}
			}
		}
		if _, err := runTrial(p, estimatorsFor(model, "a")); err != nil {
			t.Fatal(err)
		}
		if lookups == 0 {
			t.Fatalf("%s: no lookup reached the border", model)
		}
		if n := len(border.Observed()); n != 0 {
			t.Errorf("%s: the border kept %d of %d records after the trial", model, n, lookups)
		}
	}
}

// countingBarrel counts the barrels its model draws.
type countingBarrel struct {
	dga.BarrelModel
	draws *atomic.Int64
}

func (c countingBarrel) Barrel(pool *dga.Pool, thetaQ int, rng *sim.RNG) []int {
	c.draws.Add(1)
	return c.BarrelModel.Barrel(pool, thetaQ, rng)
}

// TestFigure6aDrawsEachBarrelOnce: a bot's barrel does not depend on the
// swept N, so one trial of a Figure 6(a) row, which activates bots 0…k-1 at
// each N (k ≤ N: arrivals past the epoch end are dropped), has only max k ≤
// 256 distinct barrels among its Σ k ≤ 496 activations — and with the row's
// barrel cache it draws each of them once.
func TestFigure6aDrawsEachBarrelOnce(t *testing.T) {
	xs := []float64{16, 32, 64, 128, 256}
	for _, model := range []string{"AS", "AR", "AP"} {
		spec, err := modelSpec(model, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		var draws atomic.Int64
		spec.Barrel = countingBarrel{spec.Barrel, &draws}
		r := row{
			cfg: SweepConfig{Trials: 1, Seed: 7, Workers: 1}.withDefaults(1, 64), artifact: "fig6",
			seedLabel: "a" + model, point: SweepPoint{Panel: "a", Model: model},
			spec: spec, ests: estimatorsFor(model, "a"),
		}
		drawn := func(xs []float64, cache bool) int64 {
			t.Helper()
			draws.Store(0)
			_, err := r.sweep(xs, func(p *trialParams, i, _ int) {
				p.population = int(xs[i])
				if !cache {
					p.barrels = nil
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return draws.Load()
		}
		var distinct, activations int64
		for _, x := range xs {
			k := drawn([]float64{x}, false)
			distinct, activations = max(distinct, k), activations+k
		}
		if distinct > 256 || activations <= distinct {
			t.Fatalf("%s: %d activations over %d distinct bots", model, activations, distinct)
		}
		if got := drawn(xs, true); got != distinct {
			t.Errorf("%s: the row drew %d barrels through its cache, want one per distinct bot (%d)", model, got, distinct)
		}
		if got := drawn(xs, false); got != activations {
			t.Errorf("%s: the row drew %d barrels without a cache, want one per activation (%d)", model, got, activations)
		}
	}
}

// TestOneMatchPerTrial: a trial's estimators — MB and its gap-tolerant
// variants on missing's AR row, MB and MB* on Figure 6(e)'s, MT beside the
// model's estimator everywhere — ride one Analyze, and Analyze files its
// "match" stage once per call. So missing, Figure 6(e) and chaos file one
// "match" a trial, and reactivation, whose days carry three estimators,
// one a day.
func TestOneMatchPerTrial(t *testing.T) {
	matches := func(st *obs.StageSet) int {
		for _, s := range st.Stats() {
			if s.Name == "match" {
				return s.Count
			}
		}
		return 0
	}
	cfg := SweepConfig{Trials: 2, Population: 12, Seed: 5, Scale: 0.08, Workers: 1}
	for _, tc := range []struct {
		name   string
		trials int // the sweep's trial runs: rows × axis values × Trials
		run    func(SweepConfig) error
	}{
		{"missing", 2 * 6 * cfg.Trials, func(c SweepConfig) error { _, err := MissingObservations(c); return err }},
		{"fig6e", 5 * cfg.Trials, func(c SweepConfig) error { c.Models = []string{"AR"}; _, err := Figure6e(c); return err }},
		{"chaos", 2 * 8 * cfg.Trials, func(c SweepConfig) error { _, err := ChaosSweep(c); return err }},
	} {
		c := cfg
		c.Stages = obs.NewStageSet()
		if err := tc.run(c); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := matches(c.Stages); got != tc.trials {
			t.Errorf("%s filed %d match stages over %d trials", tc.name, got, tc.trials)
		}
	}

	const days = 3
	inf := enterprise.Infection{Spec: ScaledSpec(dga.NewGoZ(), 0.1), Seed: 7, MeanActive: 8, Volatility: 0.5, ReactivateEvery: 3 * sim.Hour}
	tr, err := enterprise.Generate(enterprise.Config{Days: days, Seed: 7, BenignClients: 10, Granularity: sim.Second, Infections: []enterprise.Infection{inf}})
	if err != nil {
		t.Fatal(err)
	}
	stages := obs.NewStageSet()
	daily := openDaily(tr, "reactivation", 1, nil, stages)
	defer daily.close()
	rows, err := reactivationRows(daily, inf)
	if err != nil {
		t.Fatal(err)
	}
	if got := matches(stages); len(rows) != 3 || got != days {
		t.Errorf("reactivation: %d rows from %d match stages over %d days", len(rows), got, days)
	}
}
