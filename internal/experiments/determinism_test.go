package experiments

import (
	"testing"

	"botmeter/internal/obs"
)

// The parallel-execution contract (DESIGN.md §12): for every experiment,
// Workers=N must render the byte-identical artifact as Workers=1, because
// per-trial seeds are pure functions of the trial index and aggregation is
// canonical. These tests are the regression gate for that contract; CI runs
// them under -race, which also exercises the worker pool for data races on
// the shared estimator caches and StageSet.

// sameAtAnyWorkers renders an artifact sequentially and again at each of
// the given worker counts, and requires byte identity.
func sameAtAnyWorkers(t *testing.T, artifact string, render func(workers int) (string, error), workers ...int) {
	t.Helper()
	seq, err := render(1)
	if err != nil {
		t.Fatalf("%s workers=1: %v", artifact, err)
	}
	for _, w := range workers {
		got, err := render(w)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", artifact, w, err)
		}
		if got != seq {
			t.Errorf("%s render differs between workers=1 and workers=%d:\n--- workers=1\n%s\n--- workers=%d\n%s", artifact, w, seq, w, got)
		}
	}
}

// instrumented is a sweep configuration with every shared sink attached.
func instrumented(cfg SweepConfig, workers int) SweepConfig {
	cfg.Workers = workers
	cfg.Obs = obs.NewRegistry()
	cfg.Stages = obs.NewStageSet()
	return cfg
}

func TestWorkersDeterminismFig6a(t *testing.T) {
	sameAtAnyWorkers(t, "fig6a", func(workers int) (string, error) {
		pts, err := Figure6a(instrumented(quickCfg(), workers))
		return RenderFig6(pts), err
	}, 2, 8)
}

func TestWorkersDeterminismChaos(t *testing.T) {
	sameAtAnyWorkers(t, "chaos", func(workers int) (string, error) {
		pts, err := ChaosSweep(instrumented(SweepConfig{Trials: 2, Population: 16, Seed: 7, Scale: 0.08}, workers))
		return RenderChaos(pts), err
	}, 8)
}

func TestWorkersDeterminismFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("enterprise trace generation is seconds-scale")
	}
	sameAtAnyWorkers(t, "fig7", func(workers int) (string, error) {
		series, err := Figure7(Fig7Config{
			Days:                   4,
			Seed:                   11,
			Scale:                  0.05,
			BenignClients:          20,
			BenignLookupsPerClient: 2,
			Workers:                workers,
			Obs:                    obs.NewRegistry(),
		})
		return RenderFig7(series), err
	}, 8)
}

// TestWorkersDeterminismTaxonomyAndMissing covers the remaining sweeps
// (the per-day fan-out Reactivation shares with Figure 7 is covered above).
func TestWorkersDeterminismTaxonomyAndMissing(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep is seconds-scale")
	}
	sameAtAnyWorkers(t, "taxonomy", func(workers int) (string, error) {
		cells, err := TaxonomyGrid(SweepConfig{Trials: 1, Population: 8, Seed: 3, Workers: workers})
		return RenderTaxonomyGrid(cells), err
	}, 8)
	sameAtAnyWorkers(t, "missing", func(workers int) (string, error) {
		pts, err := MissingObservations(SweepConfig{Trials: 2, Population: 12, Seed: 5, Scale: 0.08, Workers: workers})
		return RenderMissingObs(pts), err
	}, 8)
}
