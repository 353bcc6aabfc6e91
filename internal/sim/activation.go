package sim

import "math"

// ActivationModel generates the per-epoch activation times of a bot
// population, following the paper's §V-A workload: activations form a
// Poisson-style arrival process with base rate λ₀ = N/δe. With Sigma == 0
// the rate is constant; with Sigma > 0 the rate preceding the i-th
// activation is λᵢ = λ₀·e^κᵢ with κᵢ ~ N(0, σ²), modelling fluctuating
// network dynamics (Figure 6(d)).
type ActivationModel struct {
	// Sigma is the standard deviation σ of the log-rate perturbation.
	// Zero selects the constant-rate process.
	Sigma float64
}

// EpochActivations returns the activation times of n bots inside the epoch
// [epochStart, epochStart+epochLen). Exactly one activation per bot is
// attempted; arrivals whose cumulative waiting time spills past the epoch
// end are dropped (those bots are simply not active this epoch, mirroring
// the "active bots appearing in the observation window" semantics of the
// paper). The returned times are strictly increasing.
func (m ActivationModel) EpochActivations(rng *RNG, n int, epochStart, epochLen Time) []Time {
	if n <= 0 || epochLen <= 0 {
		return nil
	}
	lambda0 := float64(n) / float64(epochLen) // activations per ms
	out := make([]Time, 0, n)
	t := epochStart
	end := epochStart + epochLen
	for i := 0; i < n; i++ {
		rate := lambda0
		if m.Sigma > 0 {
			rate = lambda0 * math.Exp(rng.Normal(0, m.Sigma))
		}
		gap := rng.Exp(rate)
		if gap < 1 {
			gap = 1 // enforce strictly increasing millisecond timestamps
		}
		t += gap
		if t >= end {
			break
		}
		out = append(out, t)
	}
	return out
}
