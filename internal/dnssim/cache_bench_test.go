package dnssim

import (
	"testing"

	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// The cache hot path in isolation: a steady-state hit and an overwriting
// store on the flat ID table.

const benchCacheEntries = 4096

func BenchmarkCacheLookupHitID(b *testing.B) {
	c := NewCache(1<<30, 1<<30)
	for i := 1; i <= benchCacheEntries; i++ {
		c.StoreID(0, symtab.ID(i), i%2 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := symtab.ID(i%benchCacheEntries + 1)
		if _, ok := c.LookupID(1, id); !ok {
			b.Fatal("unexpected miss")
		}
	}
	b.StopTimer()
	c.Release()
}

func BenchmarkCacheStoreID(b *testing.B) {
	c := NewCache(1<<30, 1<<30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StoreID(sim.Time(i), symtab.ID(i%benchCacheEntries+1), false)
	}
	b.StopTimer()
	c.Release()
}
