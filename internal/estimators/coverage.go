package estimators

import (
	"math"

	"botmeter/internal/dga"
)

// Coverage is a coverage-inversion estimator over the distinct-NXD set: it
// computes, per NXD position x in the pool, the probability p_x that a
// single random bot's activation queries x, giving the expected number of
// distinct observed NXDs under n bots
//
//	E[D | n] = Σ_x (1 − (1 − p_x)ⁿ),
//
// which is strictly increasing in n; the estimate inverts it at the
// observed distinct-NXD count. Like MB it is immune to caching, timestamp
// granularity and activation dynamics.
//
// Supported barrel classes:
//
//   - randomcut (AR): p_x follows the circle geometry — a bot covers x iff
//     its start lies within min(θq, distance-past-the-previous-boundary)
//     predecessors of x. This is MB's engineering fallback and ablation
//     partner.
//   - sampling (AS): p_x is uniform — E[#NXDs drawn before the first
//     registered domain, capped at θq] / pool size. This extends the
//     paper's estimator library to the Conficker.C cell with a set-based
//     model (paper §VII, future direction 1: combining temporal and
//     semantic traits), where the paper itself only evaluates MT.
//
// Like MB, Coverage evaluates per negative-TTL sub-window and sums, so the
// distinct-NXD signal stays unsaturated for large populations.
type Coverage struct{}

// NewCoverage builds the estimator.
func NewCoverage() *Coverage { return &Coverage{} }

// Name implements Estimator.
func (*Coverage) Name() string { return "MB-C" }

// coverProbabilities returns p_x for every NXD position under the spec's
// barrel class; nil for unsupported classes.
func coverProbabilities(pool *dga.Pool, spec dga.Spec) []float64 {
	switch spec.Barrel.Class() {
	case dga.RandomCutBarrel:
		return randomCutProbabilities(pool, spec.ThetaQ)
	case dga.SamplingBarrel, dga.PermutationBarrel:
		// A permutation barrel is a sampling barrel with θq = pool size.
		p := samplingCoverProbability(pool.NXCount(), len(pool.ValidPositions), spec.ThetaQ)
		probs := make([]float64, pool.NXCount())
		for i := range probs {
			probs[i] = p
		}
		return probs
	default:
		return nil
	}
}

// randomCutProbabilities returns p_x for the circle geometry: a bot
// starting at a uniformly random position covers x iff its start lies
// within the min(θq, distance-past-the-previous-boundary) predecessors of
// x with no registered domain in between.
func randomCutProbabilities(pool *dga.Pool, thetaQ int) []float64 {
	size := pool.Size()
	if size == 0 {
		return nil
	}
	probs := make([]float64, 0, size)
	hasValid := len(pool.ValidPositions) > 0
	dist := make([]int, size)
	if hasValid {
		// One pass around the circle starting just after a valid position,
		// so wrap-around distances come out right.
		anchor := pool.ValidPositions[len(pool.ValidPositions)-1]
		d := 0
		for i := 1; i <= size; i++ {
			x := (anchor + i) % size
			if pool.ValidAt(x) {
				d = 0
				continue
			}
			d++
			dist[x] = d
		}
	} else {
		for x := range dist {
			dist[x] = size
		}
	}
	for x := 0; x < size; x++ {
		if pool.ValidAt(x) {
			continue
		}
		starts := dist[x]
		if starts > thetaQ {
			starts = thetaQ
		}
		probs = append(probs, float64(starts)/float64(size))
	}
	return probs
}

// samplingCoverProbability returns the probability that one activation of
// a sampling-barrel bot queries a given NXD: E[#NXDs drawn before the
// first registered domain, capped at θq] / θ∅, with the draw-without-
// replacement survival Π (θ∅−j)/(θ∅+θ∃−j).
func samplingCoverProbability(nx, c2, thetaQ int) float64 {
	if nx <= 0 {
		return 0
	}
	if thetaQ > nx {
		thetaQ = nx
	}
	expected := 0.0
	survive := 1.0
	for k := 1; k <= thetaQ; k++ {
		// survive becomes P(first k draws are all NXDs); the bot queries at
		// least k NXDs exactly when that holds, so E[#NXDs] = Σ_k P(≥ k).
		survive *= float64(nx-(k-1)) / float64(nx+c2-(k-1))
		expected += survive
	}
	return expected / float64(nx)
}

// invertCoverage finds n with E[D|n] = target by bisection on the
// continuous relaxation, returning a fractional population.
func invertCoverage(probs []float64, target float64) float64 {
	expected := func(n float64) float64 {
		var e float64
		for _, p := range probs {
			if p <= 0 {
				continue
			}
			e += 1 - math.Pow(1-p, n)
		}
		return e
	}
	maxCover := 0.0
	for _, p := range probs {
		if p > 0 {
			maxCover++
		}
	}
	if target >= maxCover {
		// Saturated: every coverable position seen; return the n at which
		// the expected shortfall drops below one position.
		lo, hi := 1.0, 1e7
		for i := 0; i < 200; i++ {
			mid := (lo + hi) / 2
			if maxCover-expected(mid) > 1 {
				lo = mid
			} else {
				hi = mid
			}
		}
		return hi
	}
	lo, hi := 0.0, 1.0
	for expected(hi) < target && hi < 1e9 {
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if expected(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
