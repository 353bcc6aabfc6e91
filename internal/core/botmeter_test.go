package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"botmeter/internal/botnet"
	"botmeter/internal/d3"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/estimators"
	"botmeter/internal/sim"
	"botmeter/internal/stats"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// simulate runs a botnet and returns the observable trace plus ground
// truth.
func simulate(t *testing.T, spec dga.Spec, seed uint64, botsPerServer map[string]int, w sim.Window) (trace.Observed, *botnet.Result) {
	t.Helper()
	net := dnssim.NewNetwork(dnssim.NetworkConfig{
		LocalServers: len(botsPerServer),
		PositiveTTL:  sim.Day,
		NegativeTTL:  2 * sim.Hour,
		Granularity:  100 * sim.Millisecond,
	})
	r, err := botnet.NewRunner(botnet.Config{
		Spec:          spec,
		Seed:          seed,
		BotsPerServer: botsPerServer,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return net.Border.Observed(), res
}

func smallAU() dga.Spec {
	return dga.Spec{
		Name:          "mini-AU",
		Pool:          dga.DrainReplenish{NX: 198, C2: 2, Gen: dga.DefaultGenerator},
		Barrel:        dga.Uniform{},
		ThetaQ:        200,
		QueryInterval: 500 * sim.Millisecond,
	}
}

func smallAR() dga.Spec {
	return dga.Spec{
		Name:          "mini-AR",
		Pool:          dga.DrainReplenish{NX: 995, C2: 5, Gen: dga.DefaultGenerator},
		Barrel:        dga.RandomCut{},
		ThetaQ:        100,
		QueryInterval: sim.Second,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := New(Config{Family: smallAU(), Detection: &d3.Window{MissRate: -1}}); err == nil {
		t.Error("invalid detection window should fail")
	}
	bm, err := New(Config{Family: smallAU(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bm.EstimatorName() != "MP" {
		t.Errorf("AU should auto-select MP, got %s", bm.EstimatorName())
	}
}

func TestAnalyzeEmptyWindow(t *testing.T) {
	bm, err := New(Config{Family: smallAU(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bm.Analyze(nil, sim.Window{}); err == nil {
		t.Error("empty window should error")
	}
}

// TestChartBounds: a chart keeps a matched record in 8 bytes, its time
// offset in the window and its pool position, so it takes windows up to
// 2^40 ms and positions below 2^24. A longer window is an error, never a
// figure, and a position past the bound is refused, never truncated.
func TestChartBounds(t *testing.T) {
	bm, err := New(Config{Family: smallAU(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := sim.Window{Start: -5 * sim.Day, End: -5*sim.Day + maxChartWindow}
	if _, err := bm.NewChart(w); err != nil {
		t.Errorf("a window of %v: %v", w.Len(), err)
	}
	w.End++
	if land, err := bm.Analyze(nil, w); err == nil || land != nil {
		t.Errorf("a window of %v gave %v, %v; want an error", w.Len(), land, err)
	}
	for _, c := range []struct {
		off sim.Time
		pos int32
	}{{0, 0}, {maxChartWindow - 1, maxRefPos}, {sim.Day + 7, 12345}} {
		ref, ok := newMatchRef(c.off, c.pos)
		if !ok || ref.offset() != c.off || ref.pos() != c.pos {
			t.Errorf("ref(%v, %d) = (%v, %d), %v", c.off, c.pos, ref.offset(), ref.pos(), ok)
		}
	}
	for _, pos := range []int32{-1, maxRefPos + 1} {
		if _, ok := newMatchRef(0, pos); ok {
			t.Errorf("ref at position %d accepted", pos)
		}
	}
}

func TestAnalyzeAUPopulation(t *testing.T) {
	seed := uint64(77)
	w := sim.Window{Start: 0, End: sim.Day}
	bots := map[string]int{"local-00": 64}
	obs, res := simulate(t, smallAU(), seed, bots, w)
	bm, err := New(Config{Family: smallAU(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	land, err := bm.Analyze(obs, w)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(res.ActiveBots["local-00"][0])
	got := land.Estimate("local-00")
	if are := stats.ARE(got, truth); are > 0.5 {
		t.Errorf("MP estimate %v vs truth %v (ARE %v)", got, truth, are)
	}
	if land.Estimator != "MP" || land.Model != "AU" {
		t.Errorf("landscape metadata: %s/%s", land.Model, land.Estimator)
	}
}

func TestAnalyzeARPopulation(t *testing.T) {
	seed := uint64(88)
	w := sim.Window{Start: 0, End: sim.Day}
	bots := map[string]int{"local-00": 64}
	obs, res := simulate(t, smallAR(), seed, bots, w)
	bm, err := New(Config{Family: smallAR(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	land, err := bm.Analyze(obs, w)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(res.ActiveBots["local-00"][0])
	got := land.Estimate("local-00")
	if are := stats.ARE(got, truth); are > 0.4 {
		t.Errorf("MB estimate %v vs truth %v (ARE %v)", got, truth, are)
	}
}

func TestLandscapeRanking(t *testing.T) {
	seed := uint64(99)
	w := sim.Window{Start: 0, End: sim.Day}
	bots := map[string]int{"local-00": 8, "local-01": 96, "local-02": 32}
	obs, _ := simulate(t, smallAR(), seed, bots, w)
	bm, err := New(Config{Family: smallAR(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	land, err := bm.Analyze(obs, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(land.Servers) != 3 {
		t.Fatalf("servers in landscape: %d", len(land.Servers))
	}
	// Remediation priority: the heavily infected server first.
	if land.Servers[0].Server != "local-01" {
		t.Errorf("top priority = %s, want local-01", land.Servers[0].Server)
	}
	if land.Servers[len(land.Servers)-1].Server != "local-00" {
		t.Errorf("lowest priority = %s, want local-00", land.Servers[len(land.Servers)-1].Server)
	}
	top := land.Top(2)
	if len(top) != 2 || top[0].Server != "local-01" {
		t.Errorf("Top(2) = %+v", top)
	}
	if land.Total <= 0 {
		t.Error("total population should be positive")
	}
	// Unknown server estimate is 0.
	if land.Estimate("local-99") != 0 {
		t.Error("unknown server should estimate 0")
	}
}

func TestAnalyzeFiltersBenignTraffic(t *testing.T) {
	seed := uint64(11)
	w := sim.Window{Start: 0, End: sim.Day}
	obs, _ := simulate(t, smallAR(), seed, map[string]int{"local-00": 16}, w)
	// Inject benign lookups that must not be matched.
	noisy := make(trace.Observed, 0, len(obs)+100)
	noisy = append(noisy, obs...)
	for i := 0; i < 100; i++ {
		noisy = append(noisy, trace.ObservedRecord{
			T: sim.Time(i) * sim.Minute, Server: "local-00",
			Domain: "www.example.org",
		})
	}
	bm, err := New(Config{Family: smallAR(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := bm.Analyze(obs, w)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := bm.Analyze(noisy, w)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Estimate("local-00") != dirty.Estimate("local-00") {
		t.Errorf("benign noise changed the estimate: %v vs %v",
			clean.Estimate("local-00"), dirty.Estimate("local-00"))
	}
	if dirty.MatchedLookups != clean.MatchedLookups {
		t.Errorf("benign lookups were matched: %d vs %d",
			dirty.MatchedLookups, clean.MatchedLookups)
	}
}

func TestAnalyzeWithDetectionWindow(t *testing.T) {
	seed := uint64(22)
	w := sim.Window{Start: 0, End: sim.Day}
	obs, res := simulate(t, smallAR(), seed, map[string]int{"local-00": 64}, w)
	bm, err := New(Config{
		Family:    smallAR(),
		Seed:      seed,
		Detection: &d3.Window{MissRate: 0.3, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	land, err := bm.Analyze(obs, w)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(res.ActiveBots["local-00"][0])
	got := land.Estimate("local-00")
	// Degraded but still in the right ballpark (Fig 6(e) shows ARE growing
	// to ≈0.25 at 30% misses for MB; leave generous headroom).
	if are := stats.ARE(got, truth); are > 0.8 {
		t.Errorf("estimate with 30%% misses: %v vs truth %v (ARE %v)", got, truth, are)
	}
	if got <= 0 {
		t.Error("estimate should remain positive under misses")
	}
}

func TestAnalyzeWithCollisionNoise(t *testing.T) {
	// Collision domains (benign names D³ wrongly attributes to the DGA)
	// enter the matcher but, having no pool position, must not perturb the
	// Bernoulli estimate — the paper's noise-resilience claim.
	seed := uint64(66)
	w := sim.Window{Start: 0, End: sim.Day}
	obs, res := simulate(t, smallAR(), seed, map[string]int{"local-00": 32}, w)
	bm, err := New(Config{
		Family:    smallAR(),
		Seed:      seed,
		Detection: &d3.Window{Collisions: 10, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Inject lookups for the collision domains from benign hosts.
	noisy := append(trace.Observed{}, obs...)
	for i := 0; i < 10; i++ {
		noisy = append(noisy, trace.ObservedRecord{
			T:      sim.Time(i) * sim.Hour,
			Server: "local-00",
			Domain: fmt.Sprintf("benign-collision-0-%d.com", i),
		})
	}
	land, err := bm.Analyze(noisy, w)
	if err != nil {
		t.Fatal(err)
	}
	// Collision lookups ARE matched (they are in the detected list)...
	if land.MatchedLookups == 0 {
		t.Log("collision lookups not matched — acceptable only if matcher drops them")
	}
	// ...but the estimate stays anchored to the true population.
	truth := float64(res.ActiveBots["local-00"][0])
	if are := stats.ARE(land.Estimate("local-00"), truth); are > 0.4 {
		t.Errorf("collision noise perturbed MB: estimate %v vs truth %v", land.Estimate("local-00"), truth)
	}
}

// TestAnalyzeNonCanonicalNames: what a lookup resolves to must not depend
// on how it reached the matcher. One simulated day — a detection window with
// misses and collisions, benign lookups of the collision names mixed in — is
// analysed three ways: by the canonical names a trace file holds (the
// reference), by the same names upper-cased with a trailing dot, as a CSV or
// JSONL trace from another tap may carry them, and by the simulated border's
// interned IDs against pools sharing its table. The landscapes — MB and MP
// primaries, MT second opinion, matched and distinct-domain counts — must
// be deeply equal. (Before names were canonicalised where they are resolved,
// the upper-cased trace matched and then estimated to zero.)
func TestAnalyzeNonCanonicalNames(t *testing.T) {
	const seed, collisions = 66, 10
	w := sim.Window{Start: 0, End: sim.Day}
	for _, spec := range []dga.Spec{smallAR(), smallAU()} {
		t.Run(spec.Name, func(t *testing.T) {
			tab := symtab.New()
			pools := dga.NewPoolCache(spec.Pool, seed, tab)
			net := dnssim.NewNetwork(dnssim.NetworkConfig{LocalServers: 1, PositiveTTL: sim.Day, NegativeTTL: 2 * sim.Hour, Granularity: 100 * sim.Millisecond})
			r, err := botnet.NewRunner(botnet.Config{Spec: spec, Seed: seed, BotsPerServer: map[string]int{"local-00": 32}, Pools: pools}, net)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(w); err != nil {
				t.Fatal(err)
			}
			withIDs := append(trace.Observed{}, net.Border.Observed()...)
			for i := 0; i < collisions; i++ {
				d := fmt.Sprintf("benign-collision-0-%d.com", i)
				withIDs = append(withIDs, trace.ObservedRecord{T: sim.Time(i) * sim.Hour, Server: "local-00", Domain: d, ID: tab.Intern(d)})
			}
			canonical := append(trace.Observed{}, withIDs...)
			shouted := append(trace.Observed{}, withIDs...)
			for i := range canonical {
				canonical[i].ID = symtab.None
				shouted[i].ID = symtab.None
				shouted[i].Domain = strings.ToUpper(shouted[i].Domain) + "."
			}

			analyze := func(obs trace.Observed, pools *dga.PoolCache) *Landscape {
				t.Helper()
				bm, err := New(Config{
					Family:        spec,
					Seed:          seed,
					Pools:         pools,
					Granularity:   100 * sim.Millisecond,
					Detection:     &d3.Window{MissRate: 0.2, Collisions: collisions, Seed: 3},
					SecondOpinion: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				land, err := bm.Analyze(obs, w)
				if err != nil {
					t.Fatal(err)
				}
				return land
			}
			want := analyze(canonical, nil)
			if want.Total <= 0 || want.Servers[0].SecondOpinion <= 0 || want.MatchedLookups < collisions {
				t.Fatalf("reference landscape is degenerate: %+v", want)
			}
			for name, got := range map[string]*Landscape{
				"upper-cased, trailing dot": analyze(shouted, nil),
				"interned IDs":              analyze(withIDs, pools),
			} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: landscape differs from the canonical trace's:\n got %+v\nwant %+v", name, got, want)
				}
			}
		})
	}
}

// TestAnalyzeUnsortedInput: Analyze takes a dataset in any order. Over a
// multi-server, two-epoch trace whose timestamps are coarsened to whole
// seconds (so many records tie) and then shuffled, the landscape must be
// bit for bit the landscape of the trace's stable time-sorted copy — under
// MT, which is sensitive to the order of tied records, and under MP.
func TestAnalyzeUnsortedInput(t *testing.T) {
	const seed = 61
	w := sim.Window{Start: 0, End: 2 * sim.Day}
	obs, _ := simulate(t, smallAU(), seed, map[string]int{"local-00": 24, "local-01": 9, "local-02": 3}, w)
	shuffled := obs.Truncate(sim.Second)
	rng := sim.NewRNG(seed)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sorted := append(trace.Observed(nil), shuffled...)
	sorted.Sort()
	ties := 0
	for i := 1; i < len(sorted); i++ {
		if sorted[i].T == sorted[i-1].T {
			ties++
		}
	}
	if shuffled.IsSorted() || ties == 0 || len(sorted.Servers()) != 3 {
		t.Fatalf("trace is not an unsorted multi-server trace with ties: sorted=%v ties=%d servers=%v",
			shuffled.IsSorted(), ties, sorted.Servers())
	}
	for name, cfg := range map[string]Config{
		"MP with MT second opinion": {Family: smallAU(), Seed: seed, SecondOpinion: true},
		"MT":                        {Family: smallAU(), Seed: seed, Estimators: []estimators.Estimator{estimators.NewTiming()}},
	} {
		t.Run(name, func(t *testing.T) {
			analyze := func(obs trace.Observed) (*Landscape, string) {
				t.Helper()
				bm, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				land, err := bm.Analyze(obs, w)
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				if err := land.WriteJSON(&b); err != nil {
					t.Fatal(err)
				}
				return land, b.String()
			}
			want, wantJSON := analyze(sorted)
			got, gotJSON := analyze(shuffled)
			if len(want.Servers) != 3 || want.Total <= 0 {
				t.Fatalf("reference landscape is degenerate: %+v", want)
			}
			if !reflect.DeepEqual(got, want) || gotJSON != wantJSON {
				t.Errorf("unsorted input charts differently from its stable-sorted copy:\n got %s\nwant %s", gotJSON, wantJSON)
			}
		})
	}
}

func TestAnalyzeSecondOpinion(t *testing.T) {
	seed := uint64(33)
	w := sim.Window{Start: 0, End: sim.Day}
	obs, _ := simulate(t, smallAU(), seed, map[string]int{"local-00": 16}, w)
	bm, err := New(Config{Family: smallAU(), Seed: seed, SecondOpinion: true})
	if err != nil {
		t.Fatal(err)
	}
	land, err := bm.Analyze(obs, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(land.Servers) == 0 || land.Servers[0].SecondOpinion <= 0 {
		t.Errorf("second opinion missing: %+v", land.Servers)
	}
}

func TestAnalyzeMultiEpoch(t *testing.T) {
	seed := uint64(44)
	w := sim.Window{Start: 0, End: 2 * sim.Day}
	obs, res := simulate(t, smallAR(), seed, map[string]int{"local-00": 32}, w)
	bm, err := New(Config{Family: smallAR(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	land, err := bm.Analyze(obs, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(land.Servers) != 1 {
		t.Fatalf("servers = %d", len(land.Servers))
	}
	if got := len(land.Servers[0].PerEpoch); got != 2 {
		t.Errorf("per-epoch estimates = %d, want 2", got)
	}
	truthAvg := float64(res.ActiveBots["local-00"][0]+res.ActiveBots["local-00"][1]) / 2
	if are := stats.ARE(land.Servers[0].Population, truthAvg); are > 0.4 {
		t.Errorf("multi-epoch estimate %v vs truth %v", land.Servers[0].Population, truthAvg)
	}
}

func TestAnalyzeEstimatorOverride(t *testing.T) {
	bm, err := New(Config{Family: smallAU(), Seed: 1, Estimators: []estimators.Estimator{estimators.NewTiming()}})
	if err != nil {
		t.Fatal(err)
	}
	if bm.EstimatorName() != "MT" {
		t.Errorf("override ignored: %s", bm.EstimatorName())
	}
}

func TestLandscapeString(t *testing.T) {
	seed := uint64(55)
	w := sim.Window{Start: 0, End: sim.Day}
	obs, _ := simulate(t, smallAR(), seed, map[string]int{"local-00": 16}, w)
	bm, err := New(Config{Family: smallAR(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	land, err := bm.Analyze(obs, w)
	if err != nil {
		t.Fatal(err)
	}
	s := land.String()
	for _, want := range []string{"mini-AR", "MB", "local-00", "total estimated population"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if math.IsNaN(land.Total) {
		t.Error("NaN total")
	}
}
