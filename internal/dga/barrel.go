package dga

import "botmeter/internal/sim"

// BarrelModel selects the sequence of pool positions a bot intends to query
// during one activation (paper §III-B). The returned sequence has length at
// most θq; actual execution additionally stops at the first position holding
// a registered domain (see ExecuteBarrel).
type BarrelModel interface {
	// Class reports the taxonomy cell of this model.
	Class() BarrelClass
	// Barrel draws one bot-activation's intended query positions.
	Barrel(pool *Pool, thetaQ int, rng *sim.RNG) []int
}

// Uniform queries the pool in generation order — every bot issues the
// identical sequence (Murofet, Srizbi, Torpig, Ramnit, Qakbot).
type Uniform struct{}

// Class implements BarrelModel.
func (Uniform) Class() BarrelClass { return UniformBarrel }

// Barrel implements BarrelModel.
func (Uniform) Barrel(pool *Pool, thetaQ int, _ *sim.RNG) []int {
	n := min(thetaQ, pool.Size())
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Sampling queries a uniformly random θq-subset of the pool, in random
// order (Conficker.C: 500 of 50K).
type Sampling struct{}

// Class implements BarrelModel.
func (Sampling) Class() BarrelClass { return SamplingBarrel }

// Barrel implements BarrelModel.
func (Sampling) Barrel(pool *Pool, thetaQ int, rng *sim.RNG) []int {
	return permutedBarrel(pool, thetaQ, rng)
}

// RandomCut picks a random starting position on the pool circle and queries
// the next θq positions clockwise (newGoZ: 500 consecutive of 10K).
type RandomCut struct{}

// Class implements BarrelModel.
func (RandomCut) Class() BarrelClass { return RandomCutBarrel }

// Barrel implements BarrelModel.
func (RandomCut) Barrel(pool *Pool, thetaQ int, rng *sim.RNG) []int {
	size := pool.Size()
	if size == 0 {
		return nil
	}
	n := min(thetaQ, size)
	start := rng.IntN(size)
	out := make([]int, n)
	for i := range out {
		out[i] = (start + i) % size
	}
	return out
}

// Permutation queries the entire pool in a fresh random order each
// activation (Necurs).
type Permutation struct{}

// Class implements BarrelModel.
func (Permutation) Class() BarrelClass { return PermutationBarrel }

// Barrel implements BarrelModel.
func (Permutation) Barrel(pool *Pool, thetaQ int, rng *sim.RNG) []int {
	return permutedBarrel(pool, thetaQ, rng)
}

// permutedBarrel is Sampling's and Permutation's draw: the first θq
// positions of a permutation of the whole pool, drawn by the one kernel
// (sim.RNG.PermInto) that BarrelWithScratch uses too.
func permutedBarrel(pool *Pool, thetaQ int, rng *sim.RNG) []int {
	perm := rng.PermInto(nil, pool.Size())
	out := make([]int, min(thetaQ, len(perm)))
	for i := range out {
		out[i] = int(perm[i])
	}
	return out
}

// BarrelWithScratch draws one activation's barrel exactly like m.Barrel —
// same RNG draws, same positions — as int32 positions, the compact form a
// simulated bot keeps. Sampling and Permutation route the pool-sized
// permutation through *scratch and return only the retained θq-prefix in a
// fresh, exactly-sized slice: a pool-sized array per bot activation would be
// a 100× overhead with a 50K pool and θq=500, the dominant simulation
// allocation for AS/AP families. Other models draw through m.Barrel.
func BarrelWithScratch(m BarrelModel, pool *Pool, thetaQ int, rng *sim.RNG, scratch *[]int32) []int32 {
	switch m.(type) {
	case Sampling, Permutation:
		size := pool.Size()
		*scratch = rng.PermInto(*scratch, size)
		out := make([]int32, min(thetaQ, size))
		copy(out, *scratch)
		return out
	default:
		positions := m.Barrel(pool, thetaQ, rng)
		out := make([]int32, len(positions))
		for i, p := range positions {
			out[i] = int32(p)
		}
		return out
	}
}

// ExecuteBarrel truncates an intended barrel at the bot's termination
// condition: the sequence up to and including the first registered domain,
// or the whole barrel if every position is an NXD (the bot aborts after θq
// lookups). This is the sequence of domains actually sent to DNS.
func ExecuteBarrel(pool *Pool, positions []int) []int {
	for i, p := range positions {
		if pool.ValidAt(p) {
			return positions[:i+1]
		}
	}
	return positions
}
