// Benchmarks regenerating every table and figure of the paper's §V
// evaluation, plus ablation benches for the design choices called out in
// DESIGN.md §7. Each benchmark reports the artifact's headline accuracy
// metric via b.ReportMetric alongside the usual time/allocation figures, so
// `go test -bench=. -benchmem` doubles as a miniature reproduction run;
// cmd/benchgen regenerates the artifacts at full trial counts.
package botmeter_test

import (
	"fmt"
	"testing"

	"botmeter/internal/botnet"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/estimators"
	"botmeter/internal/experiments"
	"botmeter/internal/matcher"
	"botmeter/internal/sim"
	"botmeter/internal/stats"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// benchFig6Cfg keeps per-iteration cost benchmark-friendly while staying at
// the paper's pool scale. Workers: 0 resolves to GOMAXPROCS, so
// `go test -bench=Figure6a -cpu 1,4` measures sequential vs parallel trial
// execution (identical artifacts either way).
func benchFig6Cfg() experiments.Fig6Config {
	return experiments.Fig6Config{Trials: 2, Population: 64, Seed: 2016, Scale: 1, Workers: 0}
}

// reportMedianARE attaches the artifact's accuracy to the benchmark output.
func reportMedianARE(b *testing.B, pts []experiments.Fig6Point) {
	b.Helper()
	var medians []float64
	for _, p := range pts {
		medians = append(medians, p.ARE.P50)
	}
	b.ReportMetric(stats.Median(medians), "medianARE")
}

// BenchmarkTableI regenerates Table I (DGA parameter settings).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.RenderTableI(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure6a regenerates Figure 6(a): ARE vs bot population.
func BenchmarkFigure6a(b *testing.B) {
	var pts []experiments.Fig6Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure6a(benchFig6Cfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMedianARE(b, pts)
}

// BenchmarkFigure6b regenerates Figure 6(b): ARE vs observation window.
func BenchmarkFigure6b(b *testing.B) {
	var pts []experiments.Fig6Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure6b(benchFig6Cfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMedianARE(b, pts)
}

// BenchmarkFigure6c regenerates Figure 6(c): ARE vs negative-cache TTL.
func BenchmarkFigure6c(b *testing.B) {
	var pts []experiments.Fig6Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure6c(benchFig6Cfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMedianARE(b, pts)
}

// BenchmarkFigure6d regenerates Figure 6(d): ARE vs activation dynamics σ.
func BenchmarkFigure6d(b *testing.B) {
	var pts []experiments.Fig6Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure6d(benchFig6Cfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMedianARE(b, pts)
}

// BenchmarkFigure6e regenerates Figure 6(e): ARE vs D³ miss rate.
func BenchmarkFigure6e(b *testing.B) {
	var pts []experiments.Fig6Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure6e(benchFig6Cfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMedianARE(b, pts)
}

// BenchmarkFigure7 regenerates Figure 7: daily populations on the
// enterprise trace (reduced horizon for the benchmark loop).
func BenchmarkFigure7(b *testing.B) {
	var series []experiments.Fig7Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure7(experiments.Fig7Config{
			Days: 10, Seed: 2016, Scale: 1, BenignClients: 200, Workers: 0,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	var errs []float64
	for _, s := range series {
		if s.Estimator == "MT" {
			continue // headline metric: the model-specific estimators
		}
		errs = append(errs, s.Errors()...)
	}
	b.ReportMetric(stats.Summarize(errs).Mean, "meanARE")
}

// BenchmarkTableII regenerates Table II from the Figure 7 series.
func BenchmarkTableII(b *testing.B) {
	series, err := experiments.Figure7(experiments.Fig7Config{
		Days: 10, Seed: 2016, Scale: 1, BenignClients: 200,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rows []experiments.TableIIRow
	for i := 0; i < b.N; i++ {
		rows = experiments.TableII(series)
	}
	if len(rows) == 0 {
		b.Fatal("no rows")
	}
	b.ReportMetric(rows[0].Summary.Mean, "row0meanARE")
}

// --- Ablation benches (DESIGN.md §7) ---

// arObservations simulates a newGoZ day and returns observations plus
// truth.
func arObservations(b *testing.B, seed uint64, n int) (trace.Observed, float64) {
	b.Helper()
	net := dnssim.NewNetwork(dnssim.NetworkConfig{
		LocalServers: 1,
		PositiveTTL:  sim.Day,
		NegativeTTL:  2 * sim.Hour,
		Granularity:  100 * sim.Millisecond,
	})
	runner, err := botnet.NewRunner(botnet.Config{
		Spec:          dga.NewGoZ(),
		Seed:          seed,
		BotsPerServer: map[string]int{"local-00": n},
	}, net)
	if err != nil {
		b.Fatal(err)
	}
	res, err := runner.Run(sim.Window{Start: 0, End: sim.Day})
	if err != nil {
		b.Fatal(err)
	}
	return matched(dga.NewGoZ(), seed, net.Border.Observed()), float64(res.ActiveBots["local-00"][0])
}

// matched is core.Analyze's match pass for callers that drive an estimator
// directly: the epoch-0 records of the family, stamped with their pool
// positions.
func matched(spec dga.Spec, seed uint64, obs trace.Observed) trace.Observed {
	names := matcher.NewAttribution(spec.Pool.PoolFor(seed, 0), nil, nil)
	out := make(trace.Observed, 0, len(obs))
	for _, rec := range obs {
		if pos, ok := names.Resolve(rec); ok {
			rec.Pos = pos
			out = append(out, rec)
		}
	}
	return out
}

// BenchmarkAblationBernoulliExactVsMC compares MB (Theorem 1) against the
// coverage-inversion alternative on identical observations.
func BenchmarkAblationBernoulliExactVsMC(b *testing.B) {
	obs, truth := arObservations(b, 4242, 64)
	cfg := estimators.Config{Spec: dga.NewGoZ(), Seed: 4242}
	for _, est := range []estimators.Estimator{estimators.NewBernoulli(), estimators.NewCoverage()} {
		b.Run(est.Name(), func(b *testing.B) {
			var got float64
			for i := 0; i < b.N; i++ {
				var err error
				got, err = estimators.EstimateEpoch(est, obs, 0, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.ARE(got, truth), "ARE")
		})
	}
}

// BenchmarkAblationTTLPartition quantifies the effect of MB's per-TTL
// evaluation: without it the full-epoch circle saturates and the estimate
// collapses (see bernoulli.go).
func BenchmarkAblationTTLPartition(b *testing.B) {
	obs, truth := arObservations(b, 777, 128)
	cfg := estimators.Config{Spec: dga.NewGoZ(), Seed: 777}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"partitioned", false}, {"whole-epoch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			mb := estimators.NewBernoulli()
			mb.DisableTTLPartition = mode.disable
			var got float64
			for i := 0; i < b.N; i++ {
				var err error
				got, err = estimators.EstimateEpoch(mb, obs, 0, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.ARE(got, truth), "ARE")
		})
	}
}

// BenchmarkAblationGranularity shows MT's collapse when vantage timestamps
// are coarser than the query interval — the bridge between Figure 6 (100 ms
// stamps) and Table II (1 s stamps).
func BenchmarkAblationGranularity(b *testing.B) {
	obs, truth := arObservations(b, 999, 64)
	for _, g := range []sim.Time{100 * sim.Millisecond, sim.Second, 10 * sim.Second} {
		b.Run(fmt.Sprintf("granularity-%v", g.Duration()), func(b *testing.B) {
			cfg := estimators.Config{Spec: dga.NewGoZ(), Seed: 999, Granularity: g}
			coarse := obs.Truncate(g)
			mt := estimators.NewTiming()
			var got float64
			for i := 0; i < b.N; i++ {
				var err error
				got, err = estimators.EstimateEpoch(mt, coarse, 0, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.ARE(got, truth), "ARE")
		})
	}
}

// BenchmarkAblationMatcher times the matcher's one boundary function
// (matcher.Attribution.Resolve) on its two inputs at Conficker pool scale
// (50K domains/day), 500 in-pool + 500 benign probes: `name` is a record off
// a trace or the wire (one canonicalising string probe), `id` a record off a
// simulated border (an array read).
func BenchmarkAblationMatcher(b *testing.B) {
	tab := symtab.Get()
	defer tab.Release()
	pool := dga.ConfickerC().Pool.PoolFor(1, 0)
	pool.Intern(tab)
	byID := make(trace.Observed, 0, 1000)
	for i := 0; i < 500; i++ {
		byID = append(byID, trace.ObservedRecord{Domain: pool.Domains[i], ID: pool.IDs[i]})
	}
	for i := 0; i < 500; i++ {
		d := fmt.Sprintf("benign-%04d.example.com", i)
		byID = append(byID, trace.ObservedRecord{Domain: d, ID: tab.Intern(d)})
	}
	byName := append(trace.Observed(nil), byID...)
	for i := range byName {
		byName[i].ID = symtab.None
	}
	names := matcher.NewAttribution(pool, nil, nil)
	for _, arm := range []struct {
		name  string
		probe trace.Observed
	}{{"name", byName}, {"id", byID}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				for _, rec := range arm.probe {
					if _, ok := names.Resolve(rec); ok {
						hits++
					}
				}
			}
			if hits != 500*b.N {
				b.Fatalf("%d hits over %d passes, want 500 per pass", hits, b.N)
			}
		})
	}
}

// BenchmarkAblationPoissonClustering compares MP against the naive visible-
// cluster count it corrects (Equation 1's caching correction).
func BenchmarkAblationPoissonClustering(b *testing.B) {
	net := dnssim.NewNetwork(dnssim.NetworkConfig{
		LocalServers: 1,
		PositiveTTL:  sim.Day,
		NegativeTTL:  2 * sim.Hour,
		Granularity:  100 * sim.Millisecond,
	})
	runner, err := botnet.NewRunner(botnet.Config{
		Spec:          dga.Murofet(),
		Seed:          1212,
		BotsPerServer: map[string]int{"local-00": 64},
	}, net)
	if err != nil {
		b.Fatal(err)
	}
	res, err := runner.Run(sim.Window{Start: 0, End: sim.Day})
	if err != nil {
		b.Fatal(err)
	}
	truth := float64(res.ActiveBots["local-00"][0])
	obs := matched(dga.Murofet(), 1212, net.Border.Observed())
	cfg := estimators.Config{Spec: dga.Murofet(), Seed: 1212}
	for _, est := range []estimators.Estimator{estimators.NewPoisson(), estimators.NewNaive()} {
		b.Run(est.Name(), func(b *testing.B) {
			var got float64
			for i := 0; i < b.N; i++ {
				var err error
				got, err = estimators.EstimateEpoch(est, obs, 0, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.ARE(got, truth), "ARE")
		})
	}
}
