package estimators

import "botmeter/internal/sim"

// Poisson is MP, the paper's §IV-C estimator for uniform-barrel DGAs (AU).
//
// Because every AU bot issues the identical query barrel, a bot activating
// within the negative-cache TTL δl of a predecessor is completely absorbed
// by the cache: only the first activation per TTL window is visible at the
// vantage point. MP models activations as a Poisson process, measures the
// inter-TTL gaps Δᵢ between the end of one TTL window and the next visible
// activation, estimates the rate E(λ) = n / ΣΔᵢ, and corrects for the
// hidden activations:
//
//	E(N) = E(λ)·Σ(Δᵢ + δl) = n + n²·δl / ΣΔᵢ     (Equation 1)
//
// where n is the number of visible activations and Δ₁ is measured from the
// start of the observation window.
type Poisson struct{}

// NewPoisson builds MP.
func NewPoisson() *Poisson { return &Poisson{} }

// Name implements Estimator.
func (*Poisson) Name() string { return "MP" }

// poissonEquation1 evaluates Equation 1 over a stream's time-ordered visible
// clusters (none: 0). It never mutates its input, so the streaming path
// hands it live state for provisional estimates.
//
// TTL folding happens inline: Equation 1's own premise is that a second
// activation becoming visible requires the previous one's negative-cache
// entries to have expired, so two genuine visible activations cannot start
// within δl of each other. Bursts violating that are partial re-queries of
// the same wave (staggered per-domain expiry, detector holes) — fold them
// into the wave rather than letting them shrink ΣΔ towards zero and blow up
// the n²·δl/ΣΔ correction.
func poissonEquation1(cs *clusterStream, windowStart, deltaL, epochLen sim.Time) float64 {
	clusters := cs.count()
	if clusters == 0 {
		return 0
	}
	n := 0
	var sumGaps sim.Time
	prevTTLEnd := windowStart // Δ₁ counts from the window start
	var lastStart sim.Time
	for i := 0; i < clusters; i++ {
		c := cs.at(i)
		if n > 0 && c.start < lastStart+deltaL {
			continue // folded into the previous visible wave
		}
		gap := c.start - prevTTLEnd
		if gap < 0 {
			gap = 0
		}
		sumGaps += gap
		prevTTLEnd = c.start + deltaL
		lastStart = c.start
		n++
	}
	if sumGaps <= 0 {
		// Every visible activation was back-to-back with a TTL window: the
		// rate is effectively unresolvable upward; report the visible
		// count plus the maximal correction the window admits.
		return float64(n) * (float64(epochLen) / float64(deltaL))
	}
	nf := float64(n)
	return nf + nf*nf*float64(deltaL)/float64(sumGaps)
}

// cluster is a visible activation: a burst of forwarded lookups.
type cluster struct {
	start sim.Time
	end   sim.Time
	count int
}

// mergeWindowFor derives the clustering merge window from the family spec
// and DNS parameters.
//
// For uniform-barrel DGAs, distinct visible activations are separated by at
// least the negative-cache TTL (everything in between is absorbed by the
// cache), while one activation's lookups all fall within the maximum
// activation duration θq·δi of its first lookup. Clustering therefore
// merges every lookup within the activation-duration window of the current
// cluster's start — robust to internal gaps from D³ misses or partially
// cached sweeps, which would otherwise shatter one activation into many
// bogus clusters and blow up Equation 1's n²/ΣΔ correction. The merge
// window is capped at half the TTL so adjacent TTL waves can never fuse.
func mergeWindowFor(cfg Config) sim.Time {
	step := cfg.Spec.QueryInterval
	if step == 0 {
		step = cfg.Spec.MaxJitter
	}
	if step <= 0 {
		step = sim.Second
	}
	mergeWindow := cfg.Spec.MaxDuration()
	if half := cfg.NegativeTTL / 2; cfg.NegativeTTL > 0 && mergeWindow > half {
		mergeWindow = half
	}
	if floor := 2 * step; mergeWindow < floor {
		mergeWindow = floor
	}
	if floor := 2 * cfg.Granularity; mergeWindow < floor {
		mergeWindow = floor
	}
	return mergeWindow
}
