package estimators

import (
	"math"
	"reflect"
	"testing"

	"botmeter/internal/dga"
	"botmeter/internal/sim"
	"botmeter/internal/stats"
	"botmeter/internal/trace"
)

func asSpec(nx, c2, thetaQ int) dga.Spec {
	return dga.Spec{
		Name:          "test-AS",
		Pool:          dga.DrainReplenish{NX: nx, C2: c2, Gen: dga.DefaultGenerator},
		Barrel:        dga.Sampling{},
		ThetaQ:        thetaQ,
		QueryInterval: sim.Second,
	}
}

// simulateAS draws the sampling generative model: n bots each sample a θq
// barrel and query until the first registered domain.
func simulateAS(pool *dga.Pool, n, thetaQ int, rng *sim.RNG) []int32 {
	seen := make(map[int32]struct{})
	for b := 0; b < n; b++ {
		barrel := (dga.Sampling{}).Barrel(pool, thetaQ, rng)
		for _, pos := range dga.ExecuteBarrel(pool, barrel) {
			if !pool.ValidAt(pos) {
				seen[int32(pos)] = struct{}{}
			}
		}
	}
	out := make([]int32, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	return out
}

func TestSamplingCoverProbability(t *testing.T) {
	// With no registered domains the bot always queries θq distinct NXDs:
	// p = θq/θ∅.
	if got, want := samplingCoverProbability(100, 0, 20), 0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("no-C2 probability = %v, want %v", got, want)
	}
	// Full-permutation barrel: E[#NXDs before first valid] = θ∅/(θ∃+1).
	if got, want := samplingCoverProbability(99, 1, 99), 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("permutation probability = %v, want %v", got, want)
	}
	if samplingCoverProbability(0, 5, 10) != 0 {
		t.Error("zero NXDs should give 0")
	}
	// θq larger than pool clamps.
	if got := samplingCoverProbability(10, 0, 100); math.Abs(got-1) > 1e-12 {
		t.Errorf("clamped probability = %v, want 1", got)
	}
}

func TestCoverageRecoversSamplingPopulation(t *testing.T) {
	spec := asSpec(1995, 5, 100)
	cfg := defaultCfg(spec)
	pool := spec.Pool.PoolFor(cfg.Seed, 0)
	ce := NewCoverage()
	const trueN = 32
	var errs []float64
	for trial := 0; trial < 15; trial++ {
		rng := sim.NewRNG(uint64(3000 + trial))
		positions := simulateAS(pool, trueN, spec.ThetaQ, rng)
		obs := make(trace.Observed, 0, len(positions))
		for i, p := range positions {
			obs = append(obs, trace.ObservedRecord{T: sim.Time(i), Pos: p})
		}
		got, err := EstimateEpoch(ce, obs, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, stats.ARE(got, trueN))
	}
	if med := stats.Median(errs); med > 0.35 {
		t.Errorf("MB-C median ARE on AS = %v, want ≤ 0.35", med)
	}
}

func TestCoverageRecoversPermutationPopulation(t *testing.T) {
	// Beyond the paper's pairing (AP → MT): the coverage model treats a
	// permutation barrel as sampling with θq = pool size.
	spec := dga.Spec{
		Name:          "test-AP",
		Pool:          dga.DrainReplenish{NX: 1022, C2: 2, Gen: dga.DefaultGenerator},
		Barrel:        dga.Permutation{},
		ThetaQ:        1024,
		QueryInterval: sim.Second,
	}
	cfg := defaultCfg(spec)
	pool := spec.Pool.PoolFor(cfg.Seed, 0)
	ce := NewCoverage()
	const trueN = 12
	var errs []float64
	for trial := 0; trial < 15; trial++ {
		rng := sim.NewRNG(uint64(5000 + trial))
		seen := make(map[int32]struct{})
		for b := 0; b < trueN; b++ {
			barrel := (dga.Permutation{}).Barrel(pool, spec.ThetaQ, rng)
			for _, pos := range dga.ExecuteBarrel(pool, barrel) {
				if !pool.ValidAt(pos) {
					seen[int32(pos)] = struct{}{}
				}
			}
		}
		obs := make(trace.Observed, 0, len(seen))
		i := 0
		for p := range seen {
			obs = append(obs, trace.ObservedRecord{T: sim.Time(i), Pos: p})
			i++
		}
		got, err := EstimateEpoch(ce, obs, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, stats.ARE(got, trueN))
	}
	if med := stats.Median(errs); med > 0.5 {
		t.Errorf("MB-C median ARE on AP = %v, want ≤ 0.5", med)
	}
}

func TestCoverageUnsupportedBarrel(t *testing.T) {
	// Uniform barrels have no meaningful coverage inversion; the estimator
	// returns 0 rather than a misleading figure.
	cfg := defaultCfg(auSpec())
	got, err := EstimateEpoch(NewCoverage(), trace.Observed{{T: 0, Pos: 23}}, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("uniform barrel coverage estimate = %v, want 0", got)
	}
}

func TestCoverageTTLPartitionSums(t *testing.T) {
	// Observations in two different TTL windows are estimated separately
	// and summed: the same distinct set twice across buckets roughly
	// doubles the estimate.
	spec := arSpec(995, 5, 50)
	cfg := defaultCfg(spec)
	pool := spec.Pool.PoolFor(cfg.Seed, 0)
	positions := simulateAR(pool, 10, spec.ThetaQ, sim.NewRNG(8))
	var oneBucket, twoBuckets trace.Observed
	for i, p := range positions {
		oneBucket = append(oneBucket, trace.ObservedRecord{T: sim.Time(i), Pos: p})
		twoBuckets = append(twoBuckets, trace.ObservedRecord{T: sim.Time(i), Pos: p})
		twoBuckets = append(twoBuckets, trace.ObservedRecord{T: 3*sim.Hour + sim.Time(i), Pos: p})
	}
	ce := NewCoverage()
	a, err := EstimateEpoch(ce, oneBucket, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateEpoch(ce, twoBuckets, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b < 1.8*a || b > 2.2*a {
		t.Errorf("two-bucket estimate %v, want ≈ 2× single-bucket %v", b, a)
	}
}

// TestCoverageStreamSharesMBState: MB-C folds records with MB's pair fold, so
// what its stream exports is MB's state for the same records, and a stream
// restored from it estimates what the original does — what lets an MB-C cell
// checkpoint and merge by MB's algebra.
func TestCoverageStreamSharesMBState(t *testing.T) {
	spec := arSpec(995, 5, 50)
	cfg, err := defaultCfg(spec).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	pool := spec.Pool.PoolFor(cfg.Seed, 0)
	var obs trace.Observed
	for i, p := range simulateAR(pool, 10, spec.ThetaQ, sim.NewRNG(8)) {
		obs = append(obs, trace.ObservedRecord{T: sim.Time(i) * 10 * sim.Minute, Pos: p})
	}
	cov := runEpochStream(NewCoverage(), cfg, obs)
	st := cov.ExportState(nil)
	if st.Bernoulli == nil || st.Timing != nil || st.Clusters != nil {
		t.Fatalf("MB-C exported %+v, want Bernoulli state only", st)
	}
	if mb := mbStateOf(cfg, obs); !reflect.DeepEqual(*st.Bernoulli, mb) {
		t.Fatalf("MB-C state differs from MB's over the same records:\n MB-C %+v\n MB   %+v", *st.Bernoulli, mb)
	}
	twin := NewCoverage().OpenEpoch(0, cfg)
	if err := twin.RestoreState(st, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := twin.Estimate(), cov.Estimate(); got != want || want <= 0 {
		t.Errorf("restored MB-C stream estimates %v, original %v", got, want)
	}
	if err := twin.RestoreState(EpochState{Clusters: &ClusterStreamState{}}, nil); err == nil {
		t.Error("an MB-C stream restored from cluster state")
	}
}
