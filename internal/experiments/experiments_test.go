package experiments

import (
	"bytes"
	"strings"
	"testing"

	"botmeter/internal/dga"
	"botmeter/internal/enterprise"
	"botmeter/internal/sim"
	"botmeter/internal/stats"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// quickCfg keeps test runtime low: small pools, few trials.
func quickCfg() Fig6Config {
	return Fig6Config{Trials: 2, Population: 24, Seed: 9, Scale: 0.08}
}

func TestScaledSpec(t *testing.T) {
	s := ScaledSpec(dga.ConfickerC(), 0.1)
	dr := s.Pool.(dga.DrainReplenish)
	if dr.NX != 4999 || s.ThetaQ != 50 {
		t.Errorf("scaled: NX=%d θq=%d", dr.NX, s.ThetaQ)
	}
	if dr.C2 != 5 {
		t.Errorf("θ∃ must be preserved, got %d", dr.C2)
	}
	same := ScaledSpec(dga.ConfickerC(), 1)
	if same.ThetaQ != 500 {
		t.Error("scale 1 must be identity")
	}
	// Sliding-window pools scale their per-day volume and barrel budget.
	sw := ScaledSpec(dga.Ranbyus(), 0.5)
	swPool := sw.Pool.(dga.SlidingWindow)
	if swPool.PerDay != 20 || sw.ThetaQ != 620 {
		t.Errorf("sliding-window scaled: PerDay=%d θq=%d", swPool.PerDay, sw.ThetaQ)
	}
	if swPool.C2 != dga.Ranbyus().Pool.(dga.SlidingWindow).C2 {
		t.Errorf("sliding-window θ∃ must be preserved, got %d", swPool.C2)
	}
	// PerDay never shrinks below the registered count + 1.
	tiny := ScaledSpec(dga.Ranbyus(), 0.01)
	if got := tiny.Pool.(dga.SlidingWindow).PerDay; got != 4 {
		t.Errorf("sliding-window PerDay floor: got %d, want 4", got)
	}
	// Multiple-mixture pools scale useful and noise pools alike.
	mm := ScaledSpec(dga.Pykspa(), 0.1)
	mmPool := mm.Pool.(dga.MultipleMixture)
	if mmPool.UsefulNX != 19 || mmPool.NoiseSizes[0] != 1600 || mm.ThetaQ != 100 {
		t.Errorf("mixture scaled: UsefulNX=%d noise=%v θq=%d",
			mmPool.UsefulNX, mmPool.NoiseSizes, mm.ThetaQ)
	}
	if mmPool.UsefulC2 != 2 {
		t.Errorf("mixture θ∃ must be preserved, got %d", mmPool.UsefulC2)
	}
	// The original specs are never mutated in place.
	if dga.Pykspa().Pool.(dga.MultipleMixture).NoiseSizes[0] != 16000 {
		t.Error("ScaledSpec must not mutate the source spec's noise sizes")
	}
}

func TestModelSpec(t *testing.T) {
	for _, m := range []string{"AU", "AS", "AR", "AP"} {
		s, err := modelSpec(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.ModelName() != m {
			t.Errorf("modelSpec(%s) produced %s", m, s.ModelName())
		}
	}
	if _, err := modelSpec("XX", 1); err == nil {
		t.Error("unknown model should error")
	}
}

func TestEstimatorsFor(t *testing.T) {
	names := func(model, panel string) []string {
		var out []string
		for _, e := range estimatorsFor(model, panel) {
			out = append(out, e.Name())
		}
		return out
	}
	if got := names("AU", "a"); len(got) != 2 || got[1] != "MP" {
		t.Errorf("AU estimators = %v", got)
	}
	if got := names("AR", "a"); len(got) != 2 || got[1] != "MB" {
		t.Errorf("AR estimators = %v", got)
	}
	if got := names("AS", "a"); len(got) != 1 || got[0] != "MT" {
		t.Errorf("AS estimators = %v", got)
	}
	// Panel (e) adds the paper-faithful MB* on AR.
	if got := names("AR", "e"); len(got) != 3 || got[2] != "MB*" {
		t.Errorf("AR panel-e estimators = %v", got)
	}
}

func TestFigure6aQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Models = []string{"AR"}
	pts, err := Figure6a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5 x-values × 2 estimators (MT + MB).
	if len(pts) != 10 {
		t.Fatalf("points = %d, want 10", len(pts))
	}
	sawMB := false
	for _, p := range pts {
		if p.Panel != "a" || p.Model != "AR" {
			t.Errorf("bad point metadata: %+v", p)
		}
		if p.ARE.P25 > p.ARE.P75 {
			t.Errorf("quartile ordering broken: %+v", p)
		}
		if p.Estimator == "MB" {
			sawMB = true
			if p.ARE.P50 > 1.0 {
				t.Errorf("MB median ARE implausibly high: %+v", p)
			}
		}
	}
	if !sawMB {
		t.Error("MB missing from AR panel")
	}
}

func TestFigure6eMissRateDegradesMB(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 3
	cfg.Models = []string{"AR"}
	pts, err := Figure6e(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Median MB ARE at 50% misses should exceed that at 10% (shape check).
	var at10, at50 float64
	for _, p := range pts {
		if p.Estimator != "MB" {
			continue
		}
		switch p.X {
		case 10:
			at10 = p.ARE.P50
		case 50:
			at50 = p.ARE.P50
		}
	}
	if at50 < at10 {
		t.Logf("warning: MB did not degrade with misses in quick config (%.3f vs %.3f)", at10, at50)
	}
}

func TestFigure6PanelsAUQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Models = []string{"AU"}
	for name, f := range map[string]func(Fig6Config) ([]Fig6Point, error){
		"b": Figure6b, "c": Figure6c, "d": Figure6d,
	} {
		pts, err := f(cfg)
		if err != nil {
			t.Fatalf("panel %s: %v", name, err)
		}
		if len(pts) != 10 { // 5 x-values × (MT, MP)
			t.Errorf("panel %s: %d points", name, len(pts))
		}
	}
}

func TestRenderTableI(t *testing.T) {
	out := RenderTableI()
	for _, want := range []string{"Murofet", "Conficker.C", "newGoZ", "Necurs", "49995", "500ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestRenderAndCSVFig6(t *testing.T) {
	pts := []Fig6Point{
		{Panel: "a", Sweep: "population", Model: "AU", Estimator: "MP", X: 16,
			ARE: stats.Quartiles{P25: 0.01, P50: 0.05, P75: 0.1}, Trials: 3},
	}
	text := RenderFig6(pts)
	if !strings.Contains(text, "Figure 6(a)") || !strings.Contains(text, "MP") {
		t.Errorf("render:\n%s", text)
	}
	var buf bytes.Buffer
	if err := WriteFig6CSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a,population,AU,MP,16") {
		t.Errorf("csv:\n%s", buf.String())
	}
}

func TestFigure7QuickAndTableII(t *testing.T) {
	series, err := Figure7(Fig7Config{
		Days:                   4,
		Seed:                   3,
		Scale:                  0.05,
		BenignClients:          30,
		BenignLookupsPerClient: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 families × 2 estimators.
	if len(series) != 6 {
		t.Fatalf("series = %d, want 6", len(series))
	}
	for _, s := range series {
		if len(s.Truth) != 4 || len(s.Estimates) != 4 {
			t.Errorf("series %s/%s has wrong length", s.Family, s.Estimator)
		}
	}
	rows := TableII(series)
	if len(rows) != 6 {
		t.Fatalf("table II rows = %d", len(rows))
	}
	text := RenderTableII(rows)
	for _, fam := range []string{"newGoZ", "Ramnit", "Qakbot"} {
		if !strings.Contains(text, fam) {
			t.Errorf("Table II missing %s:\n%s", fam, text)
		}
	}
	fig7Text := RenderFig7(series)
	if !strings.Contains(fig7Text, "Figure 7") {
		t.Error("fig7 render broken")
	}
	var buf bytes.Buffer
	if err := WriteFig7CSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "newGoZ") {
		t.Error("fig7 csv broken")
	}
	chart := ASCIIChart(series[0], 40)
	if !strings.Contains(chart, "#") {
		t.Error("ascii chart has no truth marks")
	}
}

func TestTaxonomyGridRunsAllCells(t *testing.T) {
	cells, err := TaxonomyGrid(SweepConfig{Trials: 1, Population: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(cells))
	}
	wild := 0
	for _, c := range cells {
		if c.Wild != "?" {
			wild++
		}
		if c.Estimator == "" {
			t.Errorf("cell %s/%s has no estimator", c.Pool, c.Barrel)
		}
	}
	if wild != 7 {
		t.Errorf("wild cells = %d, want 7 (Figure 3)", wild)
	}
	text := RenderTaxonomyGrid(cells)
	for _, want := range []string{"Murofet", "Pykspa", "?", "drain-and-replenish"} {
		if !strings.Contains(text, want) {
			t.Errorf("grid render missing %q", want)
		}
	}
}

func TestReactivationExperiment(t *testing.T) {
	rows, err := Reactivation(ReactivationConfig{Days: 3, Seed: 5, MeanActive: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byName := map[string]ReactivationRow{}
	for _, r := range rows {
		byName[r.Estimator+r.Mode] = r
	}
	text := RenderReactivation(rows)
	for _, want := range []string{"MB", "MT", "Algorithm 1", "whole-epoch"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// The headline claim: MT overcounts under loops (positive bias).
	for _, r := range rows {
		if r.Estimator == "MT" && r.MeanBias <= 0 {
			t.Errorf("MT bias = %v, expected positive (overcounting replays)", r.MeanBias)
		}
	}
}

// TestBorderRecordsCarryIDs is the instrumented check behind the simulator's
// single name space: across the Figure 7 trace (three families over a benign
// zone, one network) and a Figure 6(a) trial of every model, each record the
// border took carries its domain's ID in the trial's table.
func TestBorderRecordsCarryIDs(t *testing.T) {
	check := func(what string, observed trace.Observed, tab *symtab.Table) {
		t.Helper()
		if len(observed) == 0 {
			t.Errorf("%s: the border saw nothing", what)
		}
		for _, rec := range observed {
			if rec.ID == symtab.None || tab.Resolve(rec.ID) != rec.Domain {
				t.Fatalf("%s: record %+v does not carry its domain's ID", what, rec)
			}
		}
	}

	cfg7 := Fig7Config{Days: 2, Seed: 3, Scale: 0.05, BenignClients: 30, BenignLookupsPerClient: 5}
	infections := fig7Infections(cfg7)
	tr, err := enterprise.Generate(enterprise.Config{
		Days:                   cfg7.Days,
		Seed:                   cfg7.Seed,
		BenignClients:          cfg7.BenignClients,
		BenignLookupsPerClient: cfg7.BenignLookupsPerClient,
		Granularity:            sim.Second,
		Infections:             infections,
	})
	if err != nil {
		t.Fatal(err)
	}
	check("figure 7 trace", tr.Observed, tr.Pools[infections[0].Spec.Name].Table())
	tr.Close()

	cfg6 := quickCfg()
	for _, model := range []string{"AU", "AS", "AR", "AP"} {
		spec, err := modelSpec(model, cfg6.Scale)
		if err != nil {
			t.Fatal(err)
		}
		p := defaultTrialParams(spec, cfg6.Population, trialSeed(cfg6.Seed, "a"+model, 0))
		tab := symtab.New()
		p.pools = dga.NewPoolCache(spec.Pool, p.seed, tab)
		var observed trace.Observed
		p.observed = func(rec trace.ObservedRecord) (trace.ObservedRecord, bool) {
			observed = append(observed, rec)
			return rec, true
		}
		if _, err := runTrial(p, estimatorsFor(model, "a")); err != nil {
			t.Fatal(err)
		}
		check("figure 6(a) "+model, observed, tab)
	}
}
