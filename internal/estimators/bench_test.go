package estimators

import (
	"testing"

	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

func syntheticObservations(n int, spacing sim.Time) trace.Observed {
	obs := make(trace.Observed, 0, n)
	for i := 0; i < n; i++ {
		obs = append(obs, trace.ObservedRecord{T: sim.Time(i) * spacing, Pos: int32(i % 500)})
	}
	return obs
}

func BenchmarkTimingEstimator(b *testing.B) {
	cfg := defaultCfg(auSpec())
	obs := syntheticObservations(2000, 500*sim.Millisecond)
	mt := NewTiming()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateEpoch(mt, obs, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoissonEstimator(b *testing.B) {
	cfg := defaultCfg(auSpec())
	obs := syntheticObservations(5000, sim.Minute/4)
	mp := NewPoisson()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateEpoch(mp, obs, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBernoulliEstimator(b *testing.B) {
	spec := arSpec(9995, 5, 500)
	cfg := defaultCfg(spec)
	pool := spec.Pool.PoolFor(cfg.Seed, 0)
	positions := simulateAR(pool, 64, spec.ThetaQ, sim.NewRNG(1))
	obs := make(trace.Observed, 0, len(positions))
	for i, p := range positions {
		obs = append(obs, trace.ObservedRecord{T: sim.Time(i) * sim.Minute / 4, Pos: p})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh instance each iteration: measure uncached analysis.
		mb := NewBernoulli()
		if _, err := EstimateEpoch(mb, obs, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBernoulliEstimatorCached(b *testing.B) {
	spec := arSpec(9995, 5, 500)
	cfg := defaultCfg(spec)
	pool := spec.Pool.PoolFor(cfg.Seed, 0)
	positions := simulateAR(pool, 64, spec.ThetaQ, sim.NewRNG(1))
	obs := make(trace.Observed, 0, len(positions))
	for i, p := range positions {
		obs = append(obs, trace.ObservedRecord{T: sim.Time(i) * sim.Minute / 4, Pos: p})
	}
	mb := NewBernoulli()
	if _, err := EstimateEpoch(mb, obs, 0, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateEpoch(mb, obs, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoverageEstimator(b *testing.B) {
	spec := arSpec(9995, 5, 500)
	cfg := defaultCfg(spec)
	pool := spec.Pool.PoolFor(cfg.Seed, 0)
	positions := simulateAR(pool, 64, spec.ThetaQ, sim.NewRNG(1))
	obs := make(trace.Observed, 0, len(positions))
	for i, p := range positions {
		obs = append(obs, trace.ObservedRecord{T: sim.Time(i) * sim.Minute / 4, Pos: p})
	}
	ce := NewCoverage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateEpoch(ce, obs, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGapProbabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if g := gapProbabilities(1000, 500); g == nil {
			b.Fatal("degenerate")
		}
	}
}
