package dga_test

import (
	"fmt"
	"strings"
	"testing"

	"botmeter/internal/dga"
	"botmeter/internal/experiments"
)

// TestPoolPositionIndex pins Position's name index to the map it replaced:
// every name of every preset family's pool (scaled to 0.05) at epochs 0–2
// is found at its position; noise names, other spellings of pool names and
// each pool name one byte shorter or one byte longer miss, as does every
// name against an empty pool; a name a hand-built pool holds twice is at
// its last position; and an empty name and names around and past the
// longest a names entry holds are found, and their neighbours miss.
func TestPoolPositionIndex(t *testing.T) {
	for _, name := range dga.FamilyNames() {
		preset, err := dga.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := experiments.ScaledSpec(preset, 0.05)
		for epoch := 0; epoch <= 2; epoch++ {
			pool := spec.Pool.PoolFor(7, epoch)
			for i, d := range pool.Domains {
				if got, ok := pool.Position(d); !ok || got != i {
					t.Fatalf("%s epoch %d: Position(%q) = %d, %v; want %d", name, epoch, d, got, ok, i)
				}
			}
			for i, d := range pool.Domains {
				for _, miss := range []string{strings.ToUpper(d), d + ".", fmt.Sprintf("noise-%d.example.org", i)} {
					if miss == d {
						continue
					}
					if got, ok := pool.Position(miss); ok {
						t.Fatalf("%s epoch %d: Position(%q) = %d, want a miss", name, epoch, miss, got)
					}
				}
			}
			requireNeighboursMiss(t, fmt.Sprintf("%s epoch %d", name, epoch), pool)
		}
	}

	empty := dga.NewPool(nil, nil)
	for _, d := range []string{"", "a.com", "benign-lookup.example.org"} {
		if got, ok := empty.Position(d); ok {
			t.Fatalf("empty pool: Position(%q) = %d, want a miss", d, got)
		}
	}

	repeated := dga.NewPool([]string{"a.com", "b.com", "a.com", "c.com", "b.com", "a.com"}, nil)
	for d, want := range map[string]int{"a.com": 5, "b.com": 4, "c.com": 3} {
		if got, ok := repeated.Position(d); !ok || got != want {
			t.Fatalf("repeated pool: Position(%q) = %d, %v; want %d", d, got, ok, want)
		}
	}
	if got, ok := repeated.Position("d.com"); ok {
		t.Fatalf("repeated pool: Position(%q) = %d, want a miss", "d.com", got)
	}

	// Entries are at most 64 bytes, a length byte and 63 of name: the
	// longer names are compared with Domains. The second pool's longest
	// name fits a 16-byte entry exactly.
	var lengths []string
	for _, n := range []int{0, 1, 62, 63, 64, 65, 254, 255, 256, 300} {
		lengths = append(lengths, strings.Repeat("q", n))
	}
	for _, domains := range [][]string{
		append([]string{"a.com"}, lengths...),
		{"", "b.com", strings.Repeat("w", 15), "c.org"},
	} {
		pool := dga.NewPool(domains, nil)
		for i, d := range domains {
			if got, ok := pool.Position(d); !ok || got != i {
				t.Fatalf("hand-built pool: Position(%d-byte name) = %d, %v; want %d", len(d), got, ok, i)
			}
		}
		requireNeighboursMiss(t, "hand-built pool", pool)
	}
}

// requireNeighboursMiss fails unless each pool name one byte shorter and
// one byte longer misses, where the pool does not hold that name too.
func requireNeighboursMiss(t *testing.T, what string, pool *dga.Pool) {
	t.Helper()
	held := make(map[string]bool, pool.Size())
	for _, d := range pool.Domains {
		held[d] = true
	}
	for _, d := range pool.Domains {
		misses := []string{d + "x"}
		if d != "" {
			misses = append(misses, d[:len(d)-1])
		}
		for _, miss := range misses {
			if held[miss] {
				continue
			}
			if got, ok := pool.Position(miss); ok {
				t.Fatalf("%s: Position(%q) = %d, want a miss", what, miss, got)
			}
		}
	}
}

// BenchmarkPoolPosition times the name index on nine Conficker.C pools of
// 50 000 names: building it, and looking up pool names (hit) and names no
// pool holds (miss — every record of an all-unmatched stream). The names
// looked up are copies, as a decoded record's are, 512 a pool.
func BenchmarkPoolPosition(b *testing.B) {
	spec := dga.ConfickerC()
	pools := make([]*dga.Pool, 9)
	hits := make([][]string, len(pools))
	for i := range pools {
		pools[i] = spec.Pool.PoolFor(2016, i)
		pools[i].Position("") // build the index outside the lookups' timing
		for j := 0; j < 512; j++ {
			hits[i] = append(hits[i], strings.Clone(pools[i].Domains[(j*7919)%pools[i].Size()]))
		}
	}
	b.Run("build", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			p := pools[n%len(pools)]
			dga.NewPool(p.Domains, p.ValidPositions).Position("")
		}
	})
	misses := make([]string, 4096)
	for i := range misses {
		misses[i] = fmt.Sprintf("x%dq.example.net", i)
	}
	b.Run("hit", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			k := n % len(pools)
			if _, ok := pools[k].Position(hits[k][(n/len(pools))%512]); !ok {
				b.Fatal("pool name missed")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, ok := pools[n%len(pools)].Position(misses[n%len(misses)]); ok {
				b.Fatal("noise name hit")
			}
		}
	})
}
