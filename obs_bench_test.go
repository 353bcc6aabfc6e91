package botmeter_test

import (
	"testing"
	"time"

	"botmeter/internal/experiments"
	"botmeter/internal/obs"
)

// The BenchmarkObs* family prices the observability layer's own pieces:
// an instrument update, enabled and nil (the disabled state), a histogram
// observation and a span, sampled and not. CI runs them as a smoke test
// (`go test -bench=Obs -benchtime=100x`).

// BenchmarkParallelFig6a prices the parallel trial engine itself on a small
// Figure 6(a) configuration. The workers-1 sub-benchmark takes the engine's
// inline fast path (no goroutines, no channels) and must stay within noise
// of the pre-engine sequential loop; workers-gomaxprocs shows what the
// bounded pool buys on the current host (nothing on a single-core box —
// compare `-cpu 4`). The instrumented variant additionally wires a live
// registry to bound the per-trial metric overhead.
func BenchmarkParallelFig6a(b *testing.B) {
	base := experiments.Fig6Config{Trials: 2, Population: 24, Seed: 9, Scale: 0.08}
	run := func(b *testing.B, cfg experiments.Fig6Config) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Figure6a(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("workers-1", func(b *testing.B) {
		cfg := base
		cfg.Workers = 1
		run(b, cfg)
	})
	b.Run("workers-gomaxprocs", func(b *testing.B) {
		cfg := base
		cfg.Workers = 0
		run(b, cfg)
	})
	b.Run("workers-1-instrumented", func(b *testing.B) {
		cfg := base
		cfg.Workers = 1
		cfg.Obs = obs.NewRegistry()
		run(b, cfg)
	})
}

func BenchmarkObsCounterInc(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsCounterNil(b *testing.B) {
	var c *obs.Counter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := obs.NewRegistry().Histogram("bench_seconds", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkObsSpanUnsampled(b *testing.B) {
	tr := obs.NewTracer(obs.TracerConfig{SampleEvery: 1 << 30, Capacity: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("q")
		sp.Event("step")
		sp.End()
	}
}

func BenchmarkObsSpanSampled(b *testing.B) {
	tr := obs.NewTracer(obs.TracerConfig{SampleEvery: 1, Capacity: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("q")
		sp.Event("step")
		sp.End()
	}
}
