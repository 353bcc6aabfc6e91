package estimators

import (
	"math"
	"testing"
	"testing/quick"

	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// TestTimingBoundsProperty: MT's estimate is always between 1 and the
// number of lookups for a non-empty stream (each lookup either joins an
// entry or creates one).
func TestTimingBoundsProperty(t *testing.T) {
	cfg := defaultCfg(auSpec())
	mt := NewTiming()
	f := func(ts []uint32, domIdx []uint8) bool {
		if len(ts) == 0 {
			return true
		}
		obs := make(trace.Observed, 0, len(ts))
		for i, tv := range ts {
			pos := int32(26)
			if i < len(domIdx) {
				pos = int32(domIdx[i] % 26)
			}
			obs = append(obs, trace.ObservedRecord{T: sim.Time(tv) % sim.Day, Pos: pos})
		}
		got, err := EstimateEpoch(mt, obs, 0, cfg)
		if err != nil {
			return false
		}
		return got >= 1 && got <= float64(len(obs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTimingOrderInsensitiveProperty: Algorithm 1 sorts its input, so
// permuting the record order must not change the estimate.
func TestTimingOrderInsensitiveProperty(t *testing.T) {
	cfg := defaultCfg(auSpec())
	mt := NewTiming()
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 20 + rng.IntN(30)
		obs := make(trace.Observed, 0, n)
		for i := 0; i < n; i++ {
			obs = append(obs, trace.ObservedRecord{
				T:   sim.Time(rng.Int64N(int64(sim.Hour))),
				Pos: int32(rng.IntN(26)),
			})
		}
		a, err := EstimateEpoch(mt, obs, 0, cfg)
		if err != nil {
			return false
		}
		shuffled := make(trace.Observed, n)
		copy(shuffled, obs)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b, err := EstimateEpoch(mt, shuffled, 0, cfg)
		if err != nil {
			return false
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPoissonAtLeastVisibleProperty: Equation 1's correction only ever adds
// hidden activations — the estimate is at least the number of genuinely
// visible activation waves (lookups pairwise separated by the negative
// TTL; bursts closer than δl are folded into one wave by construction).
func TestPoissonAtLeastVisibleProperty(t *testing.T) {
	cfg := defaultCfg(auSpec())
	mp := NewPoisson()
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 1 + rng.IntN(20)
		obs := make(trace.Observed, 0, n)
		for i := 0; i < n; i++ {
			obs = append(obs, trace.ObservedRecord{T: sim.Time(rng.Int64N(int64(sim.Day)))})
		}
		got, err := EstimateEpoch(mp, obs, 0, cfg)
		if err != nil {
			return false
		}
		// Greedy count of δl-separated lookups = visible waves.
		sorted := make(trace.Observed, len(obs))
		copy(sorted, obs)
		sorted.Sort()
		waves := 0
		last := sim.Time(-1) << 40
		for _, rec := range sorted {
			if rec.T >= last+cfg.NegativeTTL {
				waves++
				last = rec.T
			}
		}
		return got >= float64(waves)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSegmentsPartitionProperty: segments tile the observed positions —
// lengths sum to the number of observed NXD positions and segments do not
// overlap.
func TestSegmentsPartitionProperty(t *testing.T) {
	pool := segPool(60, 10, 30, 45)
	view := newCircleView(pool, nil)
	f := func(raw []uint8) bool {
		observed := make(map[int]struct{})
		count := 0
		for _, r := range raw {
			p := int(r) % 60
			if p == 10 || p == 30 || p == 45 {
				continue // valid positions are not NXDs
			}
			if _, dup := observed[p]; !dup {
				observed[p] = struct{}{}
				count++
			}
		}
		segs := extractSegments(view, observed, 0)
		total := 0
		covered := make(map[int]struct{})
		for _, s := range segs {
			total += s.length
			for k := 0; k < s.length; k++ {
				idx := mod(s.start+k, view.size())
				if _, dup := covered[idx]; dup {
					return false // overlap
				}
				covered[idx] = struct{}{}
			}
		}
		return total == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBernoulliAtLeastOnePerSegmentProperty: every segment was produced by
// at least one bot.
func TestBernoulliAtLeastOnePerSegmentProperty(t *testing.T) {
	mb := NewBernoulli()
	f := func(lRaw, qRaw uint8, boundary bool) bool {
		l := int(lRaw%80) + 1
		thetaQ := int(qRaw%30) + 1
		got := mb.computeExpectedBots(l, thetaQ, boundary)
		return got >= 1-1e-9 && !math.IsNaN(got) && !math.IsInf(got, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestEstimatorsRobustToGarbage: streams with out-of-epoch timestamps,
// duplicates and positions past the pool's end (a detector's collision
// names sit there) must not error or produce NaN.
func TestEstimatorsRobustToGarbage(t *testing.T) {
	cfgAU := defaultCfg(auSpec())
	cfgAR := defaultCfg(arSpec(95, 5, 10))
	garbage := trace.Observed{
		{T: -5 * sim.Day, Pos: 100, Server: "s"},
		{T: 100 * sim.Day, Pos: 99, Server: "s"},
		{T: 0, Pos: 7, Server: "s"},
		{T: 0, Pos: 7, Server: "s"},
		{T: 1, Pos: 1 << 20, Server: "s"},
	}
	ests := []struct {
		e   Estimator
		cfg Config
	}{
		{NewTiming(), cfgAU},
		{NewPoisson(), cfgAU},
		{NewNaive(), cfgAU},
		{NewBernoulli(), cfgAR},
		{NewCoverage(), cfgAR},
	}
	for _, tc := range ests {
		got, err := EstimateEpoch(tc.e, garbage, 0, tc.cfg)
		if err != nil {
			t.Errorf("%s errored on garbage: %v", tc.e.Name(), err)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Errorf("%s produced %v on garbage", tc.e.Name(), got)
		}
	}
}

// TestEstimateWindowConsistentWithSingleEpoch: a walk over a one-epoch
// window equals a direct EstimateEpoch call.
func TestEstimateWindowConsistentWithSingleEpoch(t *testing.T) {
	cfg := defaultCfg(arSpec(95, 5, 10))
	pool := cfg.Spec.Pool.PoolFor(cfg.Seed, 0)
	positions := simulateAR(pool, 6, cfg.Spec.ThetaQ, sim.NewRNG(3))
	obs := make(trace.Observed, 0, len(positions))
	for i, p := range positions {
		obs = append(obs, trace.ObservedRecord{T: sim.Time(i), Pos: p})
	}
	mb := NewBernoulli()
	direct, err := EstimateEpoch(mb, obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, windowed, err := walkWindow(mb, obs, sim.Window{Start: 0, End: sim.Day}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct != windowed {
		t.Errorf("single-epoch window (%v) != direct (%v)", windowed, direct)
	}
}
