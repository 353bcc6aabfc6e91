package estimators

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"botmeter/internal/dga"
	"botmeter/internal/stats"
)

// Bernoulli is MB, the paper's §IV-D estimator for randomcut-barrel DGAs
// (AR). It relies only on the SET of distinct NXDs observed in an epoch —
// never on timing — which makes it immune to caching (the first lookup of
// each distinct NXD always reaches the vantage point) and to timestamp
// granularity.
//
// The observed NXDs decompose into segments of consecutive pool positions.
// Per segment of length l, Theorem 1 gives the expected number of covering
// bots
//
//	E(N_L) = Σₙ n Σ_{l̃=ll}^{lu} h(l̃, n),   h(l̃, n) = Σ_m f(l̃,n,m)·g(l̃,m)
//
// with ll = l−θq+1, lu = ll for m-segments and l for b-segments.
//
// Numerical strategy: the paper's f(l̃,n,m) = m!/l̃ⁿ·C(l̃,m)·(S(n,m) −
// l̃·S(n−1,m)) is, term for term, the increment Pₙ(m) − Pₙ₋₁(m) of the
// classical occupancy distribution Pₙ(m) = P(n uniform draws over l̃ bins
// occupy exactly m bins) — the identity Pₙ(m) = C(l̃,m)·m!·S(n,m)/l̃ⁿ. We
// therefore evaluate h through the occupancy recurrence
//
//	Pₙ(m) = Pₙ₋₁(m)·m/l̃ + Pₙ₋₁(m−1)·(l̃−m+1)/l̃
//
// entirely in [0,1]-range float64, instead of multiplying astronomically
// large Stirling numbers and binomials. (TestOccupancyMatchesStirling
// cross-validates the two forms.) Since Σₙ h(l̃,n) = g(l̃,l̃) = 1, h is a
// probability distribution over n for each l̃; for b-segments, whose lu >
// ll, we average E(N) over the admissible l̃ (sub-sampled to at most
// maxLTildeSamples grid points — an ablation bench quantifies the effect).
//
// When the closed form degenerates (pathological segment shapes produce
// g outside [0,1] beyond tolerance), MB falls back to the coverage-
// inversion estimator for the affected segment.
type Bernoulli struct {
	mu        sync.Mutex
	viewCache map[viewKey]*circleView

	// work counts the (bucket, position) pairs processed by segment
	// pipeline runs — the O(changed) cost driver of an epoch close. It is
	// what the large-pool/sparse-activity test asserts scales with observed
	// activity, not pool size.
	work atomic.Uint64

	// maxN bounds the n summation (the distribution has geometric tails;
	// the bound is a safety net, not a tuning knob).
	maxN int
	// maxLTildeSamples bounds the l̃ grid for b-segments.
	maxLTildeSamples int
	// DisableTTLPartition turns off the per-TTL-window evaluation (used by
	// the ablation bench; see below). Production runs leave it false.
	DisableTTLPartition bool
	// DisableDetectionAwareness makes MB skip the effective-θq correction
	// under an imperfect D³ front end. Segments are still built on the
	// detected sub-circle (splitting them at every undetected position
	// would shatter one sweep into hundreds of fragments), but sweep
	// lengths — measured in detected positions, hence shrunk by the
	// coverage — are compared against the raw θq, so the estimator
	// undercounts progressively as the detection window narrows. This is
	// the gradual degradation the paper reports for its MB in Figure 6(e);
	// the default (false) additionally rescales θq by the realised
	// coverage, which removes the bias.
	DisableDetectionAwareness bool
	// GapTolerance lets segments stride over up to this many consecutive
	// unobserved positions, making MB robust to records lost AT THE
	// VANTAGE POINT (collector drops) — losses the estimator, unlike D³
	// misses, cannot enumerate. 0 (default) is the paper's strict
	// adjacency; 2 recovers accuracy under double-digit drop rates (see
	// the missing-observations extension experiment).
	GapTolerance int
	// AdaptiveGapTolerance sizes the tolerance from the data: a probe pass
	// measures the stridden-hole fraction r̂ (the implied record-loss
	// rate), and the final pass uses the smallest G with θq·r̂^(G+1) < ½ —
	// under half an expected false split per sweep. Striding over a true
	// inter-bot gap is benign: the merged run's length still implies the
	// right number of covering bots, so aggressive tolerance trades a tiny
	// length overcount for immunity to record loss.
	AdaptiveGapTolerance bool
}

// segKey keys the process-global expected-bots cache. The numerical bounds
// are part of the key so instances with non-default bounds (ablations)
// never alias default-bound entries.
type segKey struct {
	length     int
	thetaQ     int
	boundary   bool
	maxN       int
	maxSamples int
}

// segExpCache memoises computeExpectedBots across every Bernoulli instance:
// the value is a pure function of its key, so sharing it across servers,
// trials and stream shards is sound — a segment length evaluated for one
// trial is a cache hit for every later one. (Concurrent misses may compute
// the value twice; both writers store the identical float64.)
var segExpCache sync.Map // segKey -> float64

type viewKey struct {
	seed     uint64
	epoch    int
	aware    bool
	missRate float64
	detSeed  uint64
}

// NewBernoulli builds MB with default numerical bounds.
func NewBernoulli() *Bernoulli {
	return &Bernoulli{
		viewCache:        make(map[viewKey]*circleView),
		maxN:             4096,
		maxLTildeSamples: 16,
	}
}

// SegmentWork reports the cumulative number of (bucket, position) pairs the
// segment pipeline has processed — the observable behind the O(changed)
// epoch-close assertion.
func (mb *Bernoulli) SegmentWork() uint64 { return mb.work.Load() }

// Name implements Estimator. The paper-faithful detection-unaware variant
// reports as "MB*" so evaluation tables can show both.
func (mb *Bernoulli) Name() string {
	name := "MB"
	if mb.DisableDetectionAwareness {
		name = "MB*"
	}
	if mb.AdaptiveGapTolerance {
		return name + "+ga"
	}
	if mb.GapTolerance > 0 {
		name = fmt.Sprintf("%s+g%d", name, mb.GapTolerance)
	}
	return name
}

// estimatePairs runs the segment pipeline over the sorted pair log.
//
// Within an epoch, lookups are evaluated per negative-TTL sub-window and
// the per-window expectations are summed. Activations are short (θq·δi ≪
// δl) and occur once per bot per epoch, so each bot's sweep lands in one
// sub-window (straddlers are re-joined by the continuation merge below);
// meanwhile the circle's coverage *within* one sub-window stays far from
// saturation even for large populations, which keeps Theorem 1 informative
// — summing sub-window estimates is what lets MB track populations whose
// full-epoch footprint covers the entire pool.
func (mb *Bernoulli) estimatePairs(view *circleView, pairs []uint64, thetaQ int) float64 {
	gapTol := mb.GapTolerance
	if mb.AdaptiveGapTolerance {
		gapTol = mb.adaptTolerance(view, pairs, thetaQ)
	}
	total, _, _ := mb.sumSegments(view, pairs, thetaQ, gapTol)
	return total
}

// sumSegments runs the bucket pipeline at a given gap tolerance and
// returns the total expectation plus the covered-length and distinct-
// position tallies the adaptive mode needs. pairs is the sorted (bucket,
// position) log: bucket-major ascending, positions ascending inside each
// bucket. Cost is O(len(pairs)) set-up plus segment evaluation — never a
// function of the pool size — which is what makes watermark-driven epoch
// close O(changed positions).
func (mb *Bernoulli) sumSegments(view *circleView, pairs []uint64, thetaQ, gapTol int) (total float64, covered, distinct int) {
	mb.work.Add(uint64(len(pairs)))
	circle := view.size()
	sc := getSegScratch()
	defer putSegScratch(sc)
	sc.ensureBits(circle)
	pending := make(map[int]segment)      // keyed by continuation (end) index
	counted := make(map[segment]struct{}) // segments already attributed this epoch
	finalize := func(s segment) {
		// A segment recurring with the exact same extent later in the
		// epoch is a re-activation replay: a persistent bot retrying the
		// same barrel re-forwards precisely its original run once the
		// negative TTL lapses, whereas an unrelated bot reproducing both
		// endpoints exactly is a ~1/pool² coincidence. Count each extent
		// once per epoch.
		if _, dup := counted[s]; dup {
			return
		}
		counted[s] = struct{}{}
		total += mb.expectedBots(s, thetaQ)
	}
	// Finalize in deterministic (sorted-key) order: float addition is not
	// associative, so map-order accumulation would perturb the last ulp of
	// the total from run to run and break the engine's byte-identical
	// replay guarantees.
	flush := func(m map[int]segment) {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			finalize(m[k])
		}
	}
	prevBucket := -1
	for i := 0; i < len(pairs); {
		b := pairBucket(pairs[i])
		j := i
		for j < len(pairs) && pairBucket(pairs[j]) == b {
			j++
		}
		group := pairs[i:j]
		i = j
		distinct += len(group)
		// An empty bucket between groups flushes the pending continuations
		// (nothing can straddle it), exactly as the historical dense loop
		// did by iterating every bucket index.
		if b > prevBucket+1 && len(pending) > 0 {
			flush(pending)
			clear(pending)
		}
		prevBucket = b
		// Contract the group's pool positions onto the circle. Positions
		// ascend within the group and the contraction is monotone, so the
		// contracted indices come out sorted — no per-bucket sort.
		sc.idxs = sc.idxs[:0]
		for _, key := range group {
			if ci, ok := view.indexOf(pairPos(key)); ok {
				sc.idxs = append(sc.idxs, int32(ci))
				sc.bits[ci>>6] |= 1 << (uint(ci) & 63)
			}
		}
		segs := extractSegmentsSorted(view, sc.idxs, gapTol, sc.bits, sc.segs[:0])
		sc.segs = segs
		sc.clearBits()
		next := make(map[int]segment, len(segs))
		for _, s := range segs {
			covered += s.length
			// A segment starting exactly where a previous bucket's
			// non-boundary segment ended is the same activation split by
			// the bucket edge: re-join it.
			if prev, ok := pending[s.start]; ok && !prev.boundary {
				delete(pending, s.start)
				s = segment{start: prev.start, length: prev.length + s.length, boundary: s.boundary}
			}
			next[s.end(circle)] = s
		}
		flush(pending)
		pending = next
	}
	flush(pending)
	return total, covered, distinct
}

// adaptTolerance probes at G=2, derives the implied record-loss rate from
// the stridden-hole fraction, and returns the smallest G with under half
// an expected false split per θq-sweep.
func (mb *Bernoulli) adaptTolerance(view *circleView, pairs []uint64, thetaQ int) int {
	const probeG = 2
	_, covered, distinct := mb.sumSegments(view, pairs, thetaQ, probeG)
	if covered <= 0 || distinct >= covered {
		return probeG
	}
	rate := 1 - float64(distinct)/float64(covered)
	g := probeG
	for ; g < 16; g++ {
		expectedSplits := float64(thetaQ) * math.Pow(rate, float64(g+1))
		if expectedSplits < 0.5 {
			break
		}
	}
	return g
}

// viewFor returns the (cached) contracted circle for an epoch and the
// effective θq on it.
func (mb *Bernoulli) viewFor(pool *dga.Pool, epoch int, cfg Config) (*circleView, int) {
	thetaQ := cfg.Spec.ThetaQ
	detected := cfg.Detection != nil
	key := viewKey{seed: cfg.Seed, epoch: epoch, aware: detected}
	if detected {
		key.missRate = cfg.Detection.MissRate
		key.detSeed = cfg.Detection.Seed
	}
	mb.mu.Lock()
	view, ok := mb.viewCache[key]
	mb.mu.Unlock()
	if !ok {
		if detected {
			rep := cfg.Detection.Detect(epoch, pool)
			view = newCircleView(pool, rep.DetectedPositions)
		} else {
			view = newCircleView(pool, nil)
		}
		mb.mu.Lock()
		mb.viewCache[key] = view
		mb.mu.Unlock()
	}
	if detected && !mb.DisableDetectionAwareness {
		// A bot's θq-sweep contains Binomial(θq, coverage) detectable
		// positions. Use the mean plus two standard deviations as the
		// effective θq: segments produced by a single bot then map to
		// l̃ = 1 (one bot) even when that bot's sweep got luckier-than-
		// average detection, instead of spuriously implying several bots.
		cov := 1 - cfg.Detection.MissRate
		mean := float64(thetaQ) * cov
		scaled := int(math.Round(mean + 2*math.Sqrt(mean*(1-cov))))
		if scaled < 1 {
			scaled = 1
		}
		if scaled > thetaQ {
			scaled = thetaQ
		}
		thetaQ = scaled
	}
	return view, thetaQ
}

// expectedBots returns E(N_L) for one segment, memoised process-globally.
func (mb *Bernoulli) expectedBots(s segment, thetaQ int) float64 {
	key := segKey{
		length: s.length, thetaQ: thetaQ, boundary: s.boundary,
		maxN: mb.maxN, maxSamples: mb.maxLTildeSamples,
	}
	if v, ok := segExpCache.Load(key); ok {
		return v.(float64)
	}
	v := mb.computeExpectedBots(s.length, thetaQ, s.boundary)
	segExpCache.Store(key, v)
	return v
}

func (mb *Bernoulli) computeExpectedBots(l, thetaQ int, boundary bool) float64 {
	if l <= 0 {
		return 0
	}
	ll := l - thetaQ + 1
	if ll < 1 {
		ll = 1
	}
	lu := ll
	if boundary {
		lu = l
	}
	// Sub-sample the l̃ grid for wide b-segment ranges.
	lts := sampleGrid(ll, lu, mb.maxLTildeSamples)
	var sum float64
	valid := 0
	for _, lt := range lts {
		e, ok := mb.expectationForLTilde(lt, thetaQ)
		if !ok {
			continue
		}
		sum += e
		valid++
	}
	if valid == 0 {
		// Closed form degenerated everywhere: coverage fallback for this
		// segment — invert the expected union length of n random θq-runs.
		return coverageFallbackSegment(l, thetaQ)
	}
	return sum / float64(valid)
}

// expectationForLTilde computes Σₙ n·h(l̃,n) via the occupancy recurrence.
// The boolean reports whether the computation stayed numerically sane.
func (mb *Bernoulli) expectationForLTilde(lt, thetaQ int) (float64, bool) {
	if lt == 1 {
		return 1, true // a single admissible start: exactly one bot profile
	}
	g := gapProbabilities(lt, thetaQ)
	if g == nil {
		return 0, false
	}
	// Occupancy distribution over m = number of occupied start positions.
	p := make([]float64, lt+1) // p[m] = Pₙ(m)
	p[0] = 1                   // n = 0: zero bins occupied
	prevEg := 0.0              // E₀[g] = 0 (g[0] treated as 0)
	var expectation, mass float64
	const tailTol = 1e-9
	for n := 1; n <= mb.maxN; n++ {
		// One draw: update occupancy distribution in place (descending m).
		for m := min(n, lt); m >= 1; m-- {
			p[m] = p[m]*float64(m)/float64(lt) + p[m-1]*float64(lt-m+1)/float64(lt)
		}
		p[0] = 0
		// E_n[g].
		var eg float64
		for m := 1; m <= min(n, lt); m++ {
			eg += p[m] * g[m]
		}
		h := eg - prevEg
		prevEg = eg
		if h < 0 {
			if h < -1e-6 {
				return 0, false // numerically degenerate
			}
			h = 0
		}
		expectation += float64(n) * h
		mass += h
		if 1-mass < tailTol && n >= 2 {
			break
		}
	}
	if mass <= 0 {
		return 0, false
	}
	return expectation / mass, true
}

// gapProbabilities returns g(l̃, m) for m = 0..l̃: the probability that m
// uniformly chosen distinct start positions among l̃ — conditioned to
// include both endpoints — leave no gap of θq or more (paper Eq. 3's g). It
// returns nil if the alternating sum degenerates.
func gapProbabilities(lt, thetaQ int) []float64 {
	g := make([]float64, lt+1)
	g[0] = 0
	if lt == 1 {
		g[1] = 1
		return g
	}
	g[1] = 0 // a single start cannot include both distinct endpoints
	// Binomial terms come from the shared LogCombTable: bit-identical to
	// the scalar stats.LogBinomial (pinned by TestLogCombTableBitIdentical),
	// with the Lgamma calls amortised across every server, trial and shard.
	comb := stats.Comb
	for m := 2; m <= lt; m++ {
		den := comb.LogBinomial(lt-2, m-2)
		if math.IsInf(den, -1) {
			g[m] = 0
			continue
		}
		sum := stats.SignedZero
		for k := 0; ; k++ {
			top := lt - k*thetaQ - 2
			if top < m-2 {
				break
			}
			term := stats.SignedFromLog(
				comb.LogBinomial(m-1, k) + comb.LogBinomial(top, m-2) - den)
			if k%2 == 1 {
				term = term.Neg()
			}
			sum = sum.Add(term)
		}
		v := sum.Float()
		if math.IsNaN(v) || v < -1e-6 || v > 1+1e-6 {
			return nil
		}
		g[m] = clamp01(v)
	}
	return g
}

// coverageFallbackSegment inverts the expected contiguous-union length of n
// uniform θq-runs to the n producing an expected length closest to l.
func coverageFallbackSegment(l, thetaQ int) float64 {
	if l <= thetaQ {
		return 1
	}
	// n runs with union contiguous of length L: E[L] ≈ θq + (n−1)·θq/2 for
	// sparse overlap; solve and clamp.
	n := 1 + 2*float64(l-thetaQ)/float64(thetaQ)
	if n < 1 {
		n = 1
	}
	return n
}

// sampleGrid returns at most k integers evenly spanning [lo, hi].
func sampleGrid(lo, hi, k int) []int {
	if hi < lo {
		hi = lo
	}
	n := hi - lo + 1
	if k <= 0 || n <= k {
		out := make([]int, 0, n)
		for v := lo; v <= hi; v++ {
			out = append(out, v)
		}
		return out
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		v := lo + int(math.Round(float64(i)*float64(n-1)/float64(k-1)))
		if len(out) > 0 && out[len(out)-1] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
