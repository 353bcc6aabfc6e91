package sim

import (
	"math/bits"
	"math/rand/v2"
)

// RNG wraps a seeded PCG generator. Every stochastic component in the
// simulator draws from an RNG derived from a single experiment seed, making
// whole experiment runs reproducible bit-for-bit.
type RNG struct {
	*rand.Rand

	// src is the Rand's own source: the two share one state, so a draw
	// through either advances the stream for both. The bounded draws read
	// it directly to skip the interface dispatch.
	src  *rand.PCG
	seed uint64
}

func newRNG(src *rand.PCG, seed uint64) *RNG {
	return &RNG{Rand: rand.New(src), src: src, seed: seed}
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	return newRNG(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15), seed)
}

// Clone returns an independent generator at r's current state: both yield
// the same draws from here on, and drawing from one never moves the other.
func (r *RNG) Clone() *RNG {
	src := *r.src
	return newRNG(&src, r.seed)
}

// splitmix64 is the SplitMix64 finaliser, used to decorrelate seeds.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child stream identified by label. The child
// depends on BOTH the parent's seed and the label: equal labels under
// different parents give different streams, equal (parent, label) pairs are
// reproducible, and Split does not perturb the parent stream.
func (r *RNG) Split(label uint64) *RNG {
	z := splitmix64(r.seed ^ splitmix64(label))
	return newRNG(rand.NewPCG(z, z^0xda942042e4dd58b5), z)
}

// SplitFrom derives a child stream from a parent seed plus label without
// constructing the parent. Useful for per-bot and per-epoch streams.
func SplitFrom(seed, label uint64) *RNG {
	return NewRNG(seed).Split(label)
}

// IntN returns a uniform int in [0, n), and panics if n <= 0. It is
// math/rand/v2's Rand.IntN draw for draw, taken from the PCG directly
// instead of through the Rand's Source interface (pinned by
// TestIntNIsRandIntN).
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	return int(r.uint64n(uint64(n)))
}

// Int64N is IntN over int64: math/rand/v2's Rand.Int64N, draw for draw.
func (r *RNG) Int64N(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int64N")
	}
	return int64(r.uint64n(uint64(n)))
}

// uint64n draws a uniform value in [0, n) as math/rand/v2's uint64n does on
// a 64-bit platform, consuming the same draws.
func (r *RNG) uint64n(n uint64) uint64 {
	for {
		if v, ok := bounded(r.src.Uint64(), n); ok {
			return v
		}
	}
}

// bounded maps the draw x into [0, n): by a mask when n is a power of two,
// otherwise by Lemire's multiply-shift, which rejects x (ok false: draw
// again) when the product's low word falls below 2⁶⁴ mod n. That is
// math/rand/v2's uint64n step for step — its lo < n test only skips the
// division for draws that pass anyway — so a loop over bounded leaves the
// value and the generator state the standard library leaves. It is small
// enough to inline into PermInto's loop.
func bounded(x, n uint64) (v uint64, ok bool) {
	if n&(n-1) == 0 {
		return x & (n - 1), true
	}
	hi, lo := bits.Mul64(x, n)
	return hi, lo >= n || lo >= -n%n
}

// PermInto writes a pseudo-random permutation of [0, n) into buf (grown as
// needed) and returns it. It is Perm draw for draw: the identity fill, then
// Shuffle's Fisher–Yates from i = n-1 down to 1, each j drawn in [0, i]
// through bounded, as uint64n draws. The permutation and the generator
// state it leaves are Perm's (pinned by TestPermIntoIsPerm); what it saves
// is the swap closure, the interface dispatch per draw and, with a reused
// buf, the allocation. Positions are int32, so n must be below 2³¹.
func (r *RNG) PermInto(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = int32(i)
	}
	src := r.src
	for i := n - 1; i > 0; i-- {
		j, ok := bounded(src.Uint64(), uint64(i+1))
		for !ok {
			j, ok = bounded(src.Uint64(), uint64(i+1))
		}
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// Exp returns an exponentially distributed duration with the given rate
// (events per virtual-time unit). A non-positive rate yields an effectively
// infinite duration.
func (r *RNG) Exp(rate float64) Time {
	if rate <= 0 {
		return Time(1) << 62
	}
	return Time(r.ExpFloat64() / rate)
}

// Normal returns a normally distributed float with the given mean and
// standard deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}
