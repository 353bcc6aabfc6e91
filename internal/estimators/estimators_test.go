package estimators

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"botmeter/internal/dga"
	"botmeter/internal/matcher"
	"botmeter/internal/sim"
	"botmeter/internal/stats"
	"botmeter/internal/trace"
)

func arSpec(nx, c2, thetaQ int) dga.Spec {
	return dga.Spec{
		Name:          "test-AR",
		Pool:          dga.DrainReplenish{NX: nx, C2: c2, Gen: dga.DefaultGenerator},
		Barrel:        dga.RandomCut{},
		ThetaQ:        thetaQ,
		QueryInterval: sim.Second,
	}
}

func auSpec() dga.Spec {
	return dga.Spec{
		Name:          "test-AU",
		Pool:          dga.DrainReplenish{NX: 98, C2: 2, Gen: dga.DefaultGenerator},
		Barrel:        dga.Uniform{},
		ThetaQ:        100,
		QueryInterval: 500 * sim.Millisecond,
	}
}

func defaultCfg(spec dga.Spec) Config {
	return Config{
		Spec:        spec,
		Seed:        42,
		EpochLen:    sim.Day,
		NegativeTTL: 2 * sim.Hour,
	}
}

// --- Timing (Algorithm 1) ---

func TestTimingEmpty(t *testing.T) {
	got, err := EstimateEpoch(NewTiming(), nil, 0, defaultCfg(auSpec()))
	if err != nil || got != 0 {
		t.Errorf("empty estimate = %v, %v", got, err)
	}
}

func TestTimingHandComputed(t *testing.T) {
	spec := auSpec()
	spec.ThetaQ = 4 // max duration 2 s
	cfg := defaultCfg(spec)
	obs := trace.Observed{
		// Bot A: phase 0, domains a, b, c.
		{T: 0, Pos: 0},
		{T: 500, Pos: 1},
		{T: 1000, Pos: 2},
		// Bot B: phase 250 — heuristic #3 separates it.
		{T: 250, Pos: 0},
		{T: 750, Pos: 1},
	}
	got, err := EstimateEpoch(NewTiming(), obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("MT = %v, want 2", got)
	}
}

func TestTimingHeuristic1SameDomain(t *testing.T) {
	spec := auSpec()
	spec.ThetaQ = 1000
	cfg := defaultCfg(spec)
	// Same domain twice within the duration and in phase: heuristic #1
	// forces a second entry.
	obs := trace.Observed{
		{T: 0, Pos: 0},
		{T: 1000, Pos: 0},
	}
	got, err := EstimateEpoch(NewTiming(), obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("MT = %v, want 2 (same NXD twice = two bots)", got)
	}
}

func TestTimingHeuristic2MaxDuration(t *testing.T) {
	spec := auSpec()
	spec.ThetaQ = 2 // max duration 1 s
	cfg := defaultCfg(spec)
	obs := trace.Observed{
		{T: 0, Pos: 0},
		{T: 5000, Pos: 1}, // far beyond one activation
	}
	got, err := EstimateEpoch(NewTiming(), obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("MT = %v, want 2 (beyond max duration)", got)
	}
}

func TestTimingSkipsModuloWhenGranularityCoarse(t *testing.T) {
	spec := auSpec() // δi = 500 ms
	cfg := defaultCfg(spec)
	cfg.Granularity = sim.Second // coarser than δi: heuristic #3 unusable
	obs := trace.Observed{
		{T: 0, Pos: 0},
		{T: 1000, Pos: 1}, // would be out of phase at 500 ms... but
		// timestamps are second-truncated, so phase carries no signal.
	}
	got, err := EstimateEpoch(NewTiming(), obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("MT = %v, want 1 (modulo heuristic disabled)", got)
	}
}

func TestTimingIrregularPacing(t *testing.T) {
	spec := dga.Ramnit() // no fixed δi
	cfg := defaultCfg(spec)
	obs := trace.Observed{
		{T: 0, Pos: 0},
		{T: 777, Pos: 1},
	}
	got, err := EstimateEpoch(NewTiming(), obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("MT = %v, want 1 (no modulo heuristic without fixed δi)", got)
	}
}

// --- Poisson (Equation 1) ---

func TestPoissonEmpty(t *testing.T) {
	got, err := EstimateEpoch(NewPoisson(), nil, 0, defaultCfg(auSpec()))
	if err != nil || got != 0 {
		t.Errorf("empty estimate = %v, %v", got, err)
	}
}

func TestPoissonHandComputed(t *testing.T) {
	cfg := defaultCfg(auSpec()) // δl = 2 h
	// Three visible activations at 1 h, 4 h, 8 h (single lookups).
	obs := trace.Observed{
		{T: 1 * sim.Hour, Pos: 0},
		{T: 4 * sim.Hour, Pos: 0},
		{T: 8 * sim.Hour, Pos: 0},
	}
	// Δ₁=1h, Δ₂=4h−3h=1h, Δ₃=8h−6h=2h, ΣΔ=4h.
	// E(N) = 3 + 9·2h/4h = 7.5.
	got, err := EstimateEpoch(NewPoisson(), obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-7.5) > 1e-9 {
		t.Errorf("MP = %v, want 7.5", got)
	}
}

func TestPoissonClustersBurstsAsOneActivation(t *testing.T) {
	cfg := defaultCfg(auSpec())
	// One activation: a train of δi-spaced lookups — one cluster.
	var obs trace.Observed
	for i := 0; i < 10; i++ {
		obs = append(obs, trace.ObservedRecord{T: sim.Hour + sim.Time(i)*500*sim.Millisecond, Pos: int32(i)})
	}
	got, err := EstimateEpoch(NewPoisson(), obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// n=1, Δ₁=1h: E(N) = 1 + 1·2h/1h = 3.
	if math.Abs(got-3) > 1e-9 {
		t.Errorf("MP = %v, want 3", got)
	}
}

func TestPoissonZeroGapFallback(t *testing.T) {
	cfg := defaultCfg(auSpec())
	// A single activation exactly at the window start: ΣΔ = 0.
	obs := trace.Observed{{T: 0, Pos: 0}}
	got, err := EstimateEpoch(NewPoisson(), obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fallback: n · δe/δl = 1 · 24h/2h = 12.
	if math.Abs(got-12) > 1e-9 {
		t.Errorf("MP fallback = %v, want 12", got)
	}
}

func TestNaiveCountsClusters(t *testing.T) {
	cfg := defaultCfg(auSpec())
	obs := trace.Observed{
		{T: sim.Hour, Pos: 0},
		{T: 4 * sim.Hour, Pos: 0},
	}
	got, err := EstimateEpoch(NewNaive(), obs, 0, cfg)
	if err != nil || got != 2 {
		t.Errorf("NC = %v, %v; want 2", got, err)
	}
}

// --- Segments ---

func segPool(size int, valid ...int) *dga.Pool {
	domains := make([]string, size)
	for i := range domains {
		domains[i] = fmt.Sprintf("p%03d.com", i)
	}
	return dga.NewPool(domains, valid)
}

func posSet(positions ...int) map[int]struct{} {
	out := make(map[int]struct{}, len(positions))
	for _, p := range positions {
		out[p] = struct{}{}
	}
	return out
}

func TestExtractSegmentsBasic(t *testing.T) {
	pool := segPool(20, 5, 15)
	view := newCircleView(pool, nil)
	// Contracted circle drops positions 5 and 15. Run 2..4 ends at valid 5
	// → b-segment; run 8..9 ends at unobserved NXD 10 → m-segment.
	segs := extractSegments(view, posSet(2, 3, 4, 8, 9), 0)
	if len(segs) != 2 {
		t.Fatalf("segments = %+v", segs)
	}
	byStart := map[int]segment{}
	for _, s := range segs {
		byStart[view.orig[s.start]] = s
	}
	if s := byStart[2]; s.length != 3 || !s.boundary {
		t.Errorf("segment at 2: %+v, want length 3 b-segment", s)
	}
	if s := byStart[8]; s.length != 2 || s.boundary {
		t.Errorf("segment at 8: %+v, want length 2 m-segment", s)
	}
}

func TestExtractSegmentsWrapAround(t *testing.T) {
	pool := segPool(10, 5)
	view := newCircleView(pool, nil)
	// Run 8, 9, 0, 1 wraps the circle end (no boundary at the wrap).
	segs := extractSegments(view, posSet(8, 9, 0, 1), 0)
	if len(segs) != 1 {
		t.Fatalf("segments = %+v, want one wrapped run", segs)
	}
	if view.orig[segs[0].start] != 8 || segs[0].length != 4 || segs[0].boundary {
		t.Errorf("wrapped segment = %+v", segs[0])
	}
}

func TestExtractSegmentsValidSplits(t *testing.T) {
	pool := segPool(10, 3)
	view := newCircleView(pool, nil)
	// Position 3 is valid: it splits 2 and 4 into separate segments.
	segs := extractSegments(view, posSet(2, 3, 4), 0)
	if len(segs) != 2 {
		t.Fatalf("segments = %+v, want 2 (valid position splits)", segs)
	}
	for _, s := range segs {
		if s.length != 1 {
			t.Errorf("segment %+v, want length 1", s)
		}
		if view.orig[s.start] == 2 && !s.boundary {
			t.Error("segment before a valid position must be a b-segment")
		}
	}
}

func TestExtractSegmentsEmpty(t *testing.T) {
	pool := segPool(5, 1)
	view := newCircleView(pool, nil)
	if segs := extractSegments(view, nil, 0); segs != nil {
		t.Errorf("empty observations → %+v", segs)
	}
	if segs := extractSegments(view, posSet(1), 0); segs != nil {
		t.Errorf("valid-only observations → %+v", segs)
	}
}

func TestExtractSegmentsFullCircleNoBoundaries(t *testing.T) {
	pool := segPool(6) // no valid positions at all
	view := newCircleView(pool, nil)
	segs := extractSegments(view, posSet(0, 1, 2, 3, 4, 5), 0)
	if len(segs) != 1 || segs[0].length != 6 || segs[0].boundary {
		t.Errorf("full circle = %+v, want one 6-long m-run", segs)
	}
}

func TestExtractSegmentsGapTolerance(t *testing.T) {
	pool := segPool(30, 25)
	view := newCircleView(pool, nil)
	// Run 2..10 with holes at 5 and 8 (lost records).
	observed := posSet(2, 3, 4, 6, 7, 9, 10)
	// Strict adjacency: three fragments.
	if segs := extractSegments(view, observed, 0); len(segs) != 3 {
		t.Errorf("strict segments = %+v, want 3", segs)
	}
	// Tolerance 1 bridges single-position holes into one run whose length
	// counts the holes as covered.
	segs := extractSegments(view, observed, 1)
	if len(segs) != 1 {
		t.Fatalf("tolerant segments = %+v, want 1", segs)
	}
	if segs[0].length != 9 {
		t.Errorf("tolerant length = %d, want 9 (holes counted)", segs[0].length)
	}
	// Tolerance never bridges across an arc boundary.
	pool2 := segPool(30, 5)
	view2 := newCircleView(pool2, nil)
	segs = extractSegments(view2, posSet(3, 4, 6, 7), 2)
	if len(segs) != 2 {
		t.Errorf("boundary-bridging segments = %+v, want 2", segs)
	}
}

func TestBernoulliGapToleranceUnderRecordLoss(t *testing.T) {
	spec := arSpec(995, 5, 50)
	cfg := defaultCfg(spec)
	pool := spec.Pool.PoolFor(cfg.Seed, 0)
	const trueN = 16
	rng := sim.NewRNG(88)
	positions := simulateAR(pool, trueN, spec.ThetaQ, rng)
	// Drop 20% of the distinct observations.
	var obs trace.Observed
	for i, p := range positions {
		if rng.Float64() < 0.2 {
			continue
		}
		obs = append(obs, trace.ObservedRecord{T: sim.Time(i), Pos: p})
	}
	strict := NewBernoulli()
	sGot, err := EstimateEpoch(strict, obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tolerant := NewBernoulli()
	tolerant.GapTolerance = 2
	tGot, err := EstimateEpoch(tolerant, obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tolerant.Name() != "MB+g2" {
		t.Errorf("tolerant name = %q", tolerant.Name())
	}
	sARE := stats.ARE(sGot, trueN)
	tARE := stats.ARE(tGot, trueN)
	if tARE >= sARE {
		t.Errorf("gap tolerance did not help: strict ARE %.2f, tolerant ARE %.2f", sARE, tARE)
	}
	if tARE > 0.5 {
		t.Errorf("tolerant ARE %.2f too high under 20%% record loss", tARE)
	}
}

func TestCircleViewContraction(t *testing.T) {
	pool := segPool(10, 4)
	// Detector sees only even positions (4 is valid, excluded anyway).
	view := newCircleView(pool, []int{0, 2, 4, 6, 8})
	if view.size() != 4 {
		t.Fatalf("contracted size = %d, want 4", view.size())
	}
	// A run over detected positions 2 and 6 must NOT be split by the
	// undetected 3 and 5... except that valid position 4 lies between
	// them: boundary split expected.
	segs := extractSegments(view, posSet(2, 6), 0)
	if len(segs) != 2 {
		t.Fatalf("segments = %+v", segs)
	}
	// Positions 6 and 8 are contracted-adjacent with no boundary: one run.
	segs = extractSegments(view, posSet(6, 8), 0)
	if len(segs) != 1 || segs[0].length != 2 {
		t.Errorf("contracted adjacency failed: %+v", segs)
	}
}

// --- Bernoulli numerics ---

// TestOccupancyMatchesStirling cross-validates the occupancy recurrence
// used by MB against the paper's literal Stirling form
// Pₙ(m) = C(l̃,m)·m!·S(n,m)/l̃ⁿ.
func TestOccupancyMatchesStirling(t *testing.T) {
	st := stats.NewStirlingTable()
	for _, lt := range []int{2, 3, 5, 8} {
		p := make([]float64, lt+1)
		p[0] = 1
		for n := 1; n <= 12; n++ {
			for m := min(n, lt); m >= 1; m-- {
				p[m] = p[m]*float64(m)/float64(lt) + p[m-1]*float64(lt-m+1)/float64(lt)
			}
			p[0] = 0
			for m := 1; m <= min(n, lt); m++ {
				want := math.Exp(stats.LogBinomial(lt, m) + stats.LogFactorial(m) +
					st.Log(n, m) - float64(n)*math.Log(float64(lt)))
				if math.Abs(p[m]-want) > 1e-9 {
					t.Fatalf("P_%d(%d) over %d bins: recurrence %v, Stirling %v", n, m, lt, p[m], want)
				}
			}
		}
	}
}

func TestGapProbabilitiesProperties(t *testing.T) {
	for _, tc := range []struct{ lt, thetaQ int }{{5, 2}, {10, 3}, {20, 6}, {50, 10}} {
		g := gapProbabilities(tc.lt, tc.thetaQ)
		if g == nil {
			t.Fatalf("g(%d,%d) degenerated", tc.lt, tc.thetaQ)
		}
		if math.Abs(g[tc.lt]-1) > 1e-9 {
			t.Errorf("g(l̃,l̃) = %v, want 1", g[tc.lt])
		}
		for m := 0; m <= tc.lt; m++ {
			if g[m] < 0 || g[m] > 1 {
				t.Errorf("g(%d,%d)[%d] = %v outside [0,1]", tc.lt, tc.thetaQ, m, g[m])
			}
		}
		// Fewer start positions than needed to bridge θq gaps → g ≈ 0.
		minPts := (tc.lt-2)/tc.thetaQ + 2 - 1
		if minPts > 2 && g[2] > 1e-9 && tc.lt-2 >= tc.thetaQ {
			t.Errorf("g[2] = %v should vanish when two endpoints cannot bridge l̃=%d with θq=%d", g[2], tc.lt, tc.thetaQ)
		}
	}
}

func TestBernoulliSingleBotSegment(t *testing.T) {
	mb := NewBernoulli()
	// An m-segment of exactly θq: l̃ = 1 → exactly one bot.
	if got := mb.computeExpectedBots(10, 10, false); math.Abs(got-1) > 1e-9 {
		t.Errorf("E[N] for l=θq m-segment = %v, want 1", got)
	}
	// Very short b-segment: at least (and about) one bot.
	if got := mb.computeExpectedBots(3, 10, true); got < 1 {
		t.Errorf("E[N] for short b-segment = %v, want ≥ 1", got)
	}
}

func TestBernoulliMonotoneInLength(t *testing.T) {
	mb := NewBernoulli()
	prev := 0.0
	for _, l := range []int{10, 15, 25, 40} {
		got := mb.computeExpectedBots(l, 10, false)
		if got < prev {
			t.Errorf("E[N] not monotone: l=%d gives %v < %v", l, got, prev)
		}
		prev = got
	}
}

func TestBernoulliCacheStability(t *testing.T) {
	mb := NewBernoulli()
	a := mb.expectedBots(segment{start: 0, length: 25, boundary: false}, 10)
	b := mb.expectedBots(segment{start: 99, length: 25, boundary: false}, 10)
	if a != b {
		t.Errorf("cache miss on identical (length, type): %v vs %v", a, b)
	}
}

// simulateAR draws the randomcut generative model directly: n bots with
// uniform starts on a pool circle, each covering up to θq consecutive
// positions, stopping at valid positions. Returns the distinct queried NXD
// positions.
func simulateAR(pool *dga.Pool, n, thetaQ int, rng *sim.RNG) []int32 {
	seen := make(map[int32]struct{})
	for b := 0; b < n; b++ {
		barrel := (dga.RandomCut{}).Barrel(pool, thetaQ, rng)
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

func TestBernoulliRecoversPopulationGeneratively(t *testing.T) {
	spec := arSpec(995, 5, 50)
	cfg := defaultCfg(spec)
	pool := spec.Pool.PoolFor(cfg.Seed, 0)
	mb := NewBernoulli()
	const trueN = 24
	var errs []float64
	for trial := 0; trial < 20; trial++ {
		rng := sim.NewRNG(uint64(1000 + trial))
		positions := simulateAR(pool, trueN, spec.ThetaQ, rng)
		obs := make(trace.Observed, 0, len(positions))
		for i, p := range positions {
			obs = append(obs, trace.ObservedRecord{T: sim.Time(i), Pos: p})
		}
		got, err := EstimateEpoch(mb, obs, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, stats.ARE(got, trueN))
	}
	if med := stats.Median(errs); med > 0.35 {
		t.Errorf("MB median ARE = %v over generative AR trials, want ≤ 0.35", med)
	}
}

func TestCoverageRecoversPopulationGeneratively(t *testing.T) {
	spec := arSpec(995, 5, 50)
	cfg := defaultCfg(spec)
	pool := spec.Pool.PoolFor(cfg.Seed, 0)
	ce := NewCoverage()
	const trueN = 24
	var errs []float64
	for trial := 0; trial < 20; trial++ {
		rng := sim.NewRNG(uint64(2000 + trial))
		positions := simulateAR(pool, trueN, spec.ThetaQ, rng)
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
		t.Errorf("MB-C median ARE = %v, want ≤ 0.35", med)
	}
}

func TestBernoulliCacheImmunity(t *testing.T) {
	// Duplicate observations (as longer TTLs would remove, or shorter TTLs
	// would add) must not change MB's estimate: it uses the distinct set.
	spec := arSpec(95, 5, 10)
	cfg := defaultCfg(spec)
	pool := spec.Pool.PoolFor(cfg.Seed, 0)
	positions := simulateAR(pool, 8, spec.ThetaQ, sim.NewRNG(7))
	var once, thrice trace.Observed
	for i, p := range positions {
		once = append(once, trace.ObservedRecord{T: sim.Time(i), Pos: p})
		for rep := 0; rep < 3; rep++ {
			thrice = append(thrice, trace.ObservedRecord{T: sim.Time(i*10 + rep), Pos: p})
		}
	}
	mb := NewBernoulli()
	a, err := EstimateEpoch(mb, once, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateEpoch(mb, thrice, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("MB sensitive to duplicates: %v vs %v", a, b)
	}
}

// --- Window averaging and model selection ---

// estimatorFunc is a test estimator: eval sees the records one (server,
// epoch) cell was fed, at Estimate.
type estimatorFunc func(obs trace.Observed, epoch int) float64

func (estimatorFunc) Name() string { return "func" }
func (f estimatorFunc) OpenEpoch(epoch int, _ Config) EpochStream {
	return &funcStream{eval: func(o trace.Observed) float64 { return f(o, epoch) }}
}

type funcStream struct {
	recs trace.Observed
	eval func(trace.Observed) float64
}

func (s *funcStream) Observe(rec trace.ObservedRecord)                    { s.recs = append(s.recs, rec) }
func (s *funcStream) Estimate() float64                                   { return s.eval(s.recs) }
func (s *funcStream) ExportState(*matcher.Attribution) EpochState         { return EpochState{} }
func (s *funcStream) RestoreState(EpochState, *matcher.Attribution) error { return nil }

// constEstimator reports v for every epoch it sees a record of.
func constEstimator(v float64) Estimator {
	return estimatorFunc(func(trace.Observed, int) float64 { return v })
}

func TestEstimateWindowAverages(t *testing.T) {
	cfg := defaultCfg(auSpec())
	var obs trace.Observed
	for day := sim.Time(0); day < 4; day++ {
		obs = append(obs, trace.ObservedRecord{T: day * sim.Day})
	}
	perEpoch, got, err := walkWindow(constEstimator(10), obs, sim.Window{Start: 0, End: 4 * sim.Day}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 || len(perEpoch) != 4 {
		t.Errorf("averaged estimate = %v over %d epochs, want 10 over 4", got, len(perEpoch))
	}
	if _, _, err := walkWindow(constEstimator(0), nil, sim.Window{}, cfg); err == nil {
		t.Error("empty window should error")
	}
}

func TestEstimateWindowSplitsEpochs(t *testing.T) {
	// An estimator that reports the number of records it was handed: the
	// window splitter must partition records across epochs.
	counter := estimatorFunc(func(obs trace.Observed, _ int) float64 { return float64(len(obs)) })
	obs := trace.Observed{
		{T: sim.Hour, Pos: 0},
		{T: sim.Day + sim.Hour, Pos: 1},
		{T: sim.Day + 2*sim.Hour, Pos: 2},
	}
	cfg := defaultCfg(auSpec())
	_, got, err := walkWindow(counter, obs, sim.Window{Start: 0, End: 2 * sim.Day}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1.5 { // (1 + 2) / 2 epochs
		t.Errorf("averaged = %v, want 1.5", got)
	}
}

func TestForModel(t *testing.T) {
	tests := []struct {
		spec dga.Spec
		want string
	}{
		{dga.Murofet(), "MP"},
		{dga.NewGoZ(), "MB"},
		{dga.ConfickerC(), "MT"},
		{dga.Necurs(), "MT"},
		{dga.Ranbyus(), "MT"}, // permutation barrel
		{dga.Pykspa(), "MP"},  // uniform barrel over a mixture pool
		{dga.PushDo(), "MP"},  // uniform barrel over a sliding window
	}
	for _, tt := range tests {
		if got := ForModel(tt.spec).Name(); got != tt.want {
			t.Errorf("ForModel(%s) = %s, want %s", tt.spec.Name, got, tt.want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"MT", "MP", "NC", "MB", "MB-C"} {
		for _, spelled := range []string{name, strings.ToLower(name)} {
			e, err := ByName(spelled)
			if err != nil || e.Name() != name {
				t.Errorf("ByName(%q) = %v, %v; want the estimator named %s", spelled, e, err, name)
			}
		}
	}
	if e, err := ByName("MX"); err == nil {
		t.Errorf("ByName(MX) = %v, want an error", e)
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := defaultCfg(auSpec())
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	bad := cfg
	bad.NegativeTTL = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative TTL should fail validation")
	}
	bad = cfg
	bad.Spec = dga.Spec{}
	if err := bad.Validate(); err == nil {
		t.Error("invalid spec should fail validation")
	}
}
