package symtab

import (
	"fmt"
	"testing"
)

// BenchmarkInternTable measures the intern kernel in its three regimes:
// hit (steady-state re-intern), miss (fresh strings into a warm table) and
// resize (growth from the initial table through several doublings).
func BenchmarkInternTable(b *testing.B) {
	const n = 50000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("d%05x.dga.example.com", i)
	}

	b.Run("hit", func(b *testing.B) {
		tab := New()
		for _, k := range keys {
			tab.Intern(k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab.Intern(keys[i%n])
		}
	})

	b.Run("miss", func(b *testing.B) {
		tab := New()
		fresh := make([]string, 0, b.N)
		for i := 0; i < b.N; i++ {
			fresh = append(fresh, fmt.Sprintf("m%08x.dga.example.com", i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab.Intern(fresh[i])
		}
	})

	b.Run("resize", func(b *testing.B) {
		b.ReportAllocs()
		tab := Get()
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				tab.Reset()
			}
			tab.Intern(keys[i%n])
		}
		tab.Release()
	})
}

func BenchmarkLookup(b *testing.B) {
	const n = 50000
	tab := New()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("d%05x.dga.example.com", i)
		tab.Intern(keys[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(keys[i%n])
	}
}

// BenchmarkGrow times one doubling of the index at the size where a 16 s
// chain-miss run crosses it: 393 216 names fill 524 288 slots to the 3/4
// load and the next insert re-places every ID into 1 048 576. The worker
// that owns the table answers nothing for that long.
func BenchmarkGrow(b *testing.B) {
	const n = 393216
	b.Run(fmt.Sprint(n), func(b *testing.B) {
		tab := New()
		for i := 0; i < n; i++ {
			tab.Intern(fmt.Sprintf("h%07x.bench.example.com", i))
		}
		full, mask := tab.idx, tab.mask
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab.idx, tab.mask = full, mask
			tab.growLocked()
		}
	})
}
