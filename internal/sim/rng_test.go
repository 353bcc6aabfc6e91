package sim

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestPermIntoIsPerm pins PermInto to math/rand/v2's Perm: the same
// permutation value for value, and the generator left exactly where Perm
// leaves it. Every n ≥ 2 crosses the power-of-two mask path (i+1 = 2, 4, …)
// and the Lemire path; 64 and 1024 end on a mask draw. This test, not the
// standard library, is what guarantees every golden survives the kernel.
func TestPermIntoIsPerm(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 64, 1024, 2046, 9995, 50000}
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	var buf []int32
	for s := 0; s < seeds; s++ {
		seed := splitmix64(uint64(s))
		for _, n := range sizes {
			want := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
			got := NewRNG(seed)
			perm := want.Perm(n)
			buf = got.PermInto(buf, n)
			if len(buf) != n {
				t.Fatalf("seed %d, n %d: PermInto returned %d positions", seed, n, len(buf))
			}
			for i := range perm {
				if int(buf[i]) != perm[i] {
					t.Fatalf("seed %d, n %d: position %d is %d, Perm has %d", seed, n, i, buf[i], perm[i])
				}
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, n %d: next Uint64 %d after PermInto, %d after Perm", seed, n, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d, n %d: next Float64 %v after PermInto, %v after Perm", seed, n, g, w)
			}
		}
	}
}

// TestIntNIsRandIntN pins IntN and Int64N to math/rand/v2's: the same
// values draw for draw, and the generator left where the standard library
// leaves it. The bounds cross the mask path (1, 2, 64), Lemire's path with
// rare rejections, and 3·2⁶¹, where one draw in four is rejected.
func TestIntNIsRandIntN(t *testing.T) {
	bounds := []int64{1, 2, 3, 6, 26, 64, 50000, 1<<40 + 1, 3 << 61, math.MaxInt64}
	const draws = 16
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for s := 0; s < seeds; s++ {
		seed := splitmix64(uint64(s))
		for _, n := range bounds {
			want := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
			got := NewRNG(seed)
			for d := 0; d < draws; d++ {
				if g, w := got.IntN(int(n)), want.IntN(int(n)); g != w {
					t.Fatalf("seed %d, n %d, draw %d: IntN %d, rand.IntN %d", seed, n, d, g, w)
				}
				if g, w := got.Int64N(n), want.Int64N(n); g != w {
					t.Fatalf("seed %d, n %d, draw %d: Int64N %d, rand.Int64N %d", seed, n, d, g, w)
				}
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, n %d: next Uint64 %d after IntN, %d after rand.IntN", seed, n, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d, n %d: next Float64 %v after IntN, %v after rand.IntN", seed, n, g, w)
			}
		}
	}
}

// TestPermIntoReusesBuffer: a buffer with room is filled in place.
func TestPermIntoReusesBuffer(t *testing.T) {
	buf := make([]int32, 0, 100)
	out := NewRNG(1).PermInto(buf, 50)
	if &out[0] != &buf[:1][0] {
		t.Error("PermInto allocated although the buffer had room")
	}
}

// TestCloneIsIndependent: a clone starts at its parent's state and the two
// never move each other afterwards, whichever draws first.
func TestCloneIsIndependent(t *testing.T) {
	state := func() *RNG {
		r := NewRNG(17)
		r.PermInto(nil, 100)
		return r
	}
	var ref [16]uint64
	twin := state()
	for i := range ref {
		ref[i] = twin.Uint64()
	}
	parent := state()
	clone := parent.Clone()
	for i := 0; i < 8; i++ {
		if got := clone.Uint64(); got != ref[i] {
			t.Fatalf("clone draw %d = %d, want the parent's stream %d", i, got, ref[i])
		}
	}
	for i := range ref {
		if got := parent.Uint64(); got != ref[i] {
			t.Fatalf("parent draw %d = %d after its clone drew, want %d", i, got, ref[i])
		}
	}
	for i := 8; i < 16; i++ {
		if got := clone.Uint64(); got != ref[i] {
			t.Fatalf("clone draw %d = %d after its parent drew, want %d", i, got, ref[i])
		}
	}
}

// BenchmarkPerm50K is one Conficker.C-sized barrel permutation into a reused
// buffer, through the standard library's Shuffle and through PermInto.
func BenchmarkPerm50K(b *testing.B) {
	const n = 50000
	b.Run("Shuffle", func(b *testing.B) {
		r := NewRNG(1)
		buf := make([]int, n)
		for i := 0; i < b.N; i++ {
			for j := range buf {
				buf[j] = j
			}
			r.Shuffle(n, func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
		}
	})
	b.Run("PermInto", func(b *testing.B) {
		r := NewRNG(1)
		var buf []int32
		for i := 0; i < b.N; i++ {
			buf = r.PermInto(buf, n)
		}
	})
}
