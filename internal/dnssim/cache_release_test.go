package dnssim

import (
	"testing"

	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// Regression tests for the Release path: Release used to replace the pooled
// storage with a fresh unpooled one, so every Release/Store cycle churned the
// shared pool with small arrays. Release is now idempotent and leaves the
// cache usable-but-unpooled.

func TestCacheDoubleRelease(t *testing.T) {
	c := NewCache(100, 10)
	c.StoreID(0, 7, false)
	c.Release()
	if c.Len() != 0 {
		t.Fatalf("Len after Release = %d, want 0", c.Len())
	}
	// Second (and third) Release must be no-ops, not pool pollution.
	c.Release()
	c.Release()
	if c.Len() != 0 {
		t.Fatalf("Len after double Release = %d, want 0", c.Len())
	}
}

func TestCacheUseAfterRelease(t *testing.T) {
	c := NewCache(100, 10)
	c.StoreID(0, symtab.ID(9), true)
	c.Release()

	// Lookups after Release miss safely.
	if _, ok := c.LookupID(1, 9); ok {
		t.Fatal("lookup hit after Release")
	}

	// Stores after Release lazily re-allocate unpooled storage and the
	// cache behaves normally again.
	c.StoreID(2, 11, true)
	if ans, ok := c.LookupID(3, 11); !ok || !ans.NX {
		t.Fatalf("cache unusable after Release: ok=%v ans=%+v", ok, ans)
	}

	// Releasing again keeps the unpooled storage out of the shared pool
	// and stays safe.
	c.Release()
	if ans, ok := c.LookupID(4, 11); !ok || !ans.NX {
		t.Fatalf("post-Release storage dropped by second Release: ok=%v ans=%+v", ok, ans)
	}
}

func TestCacheReleaseReturnsCleanStorage(t *testing.T) {
	// A released slot array handed to the next cache must not leak entries.
	c1 := NewCache(100, 10)
	for i := 0; i < 100; i++ {
		c1.StoreID(0, symtab.ID(i+1), false)
	}
	c1.Release()

	c2 := NewCache(100, 10)
	if _, ok := c2.LookupID(1, 5); ok {
		t.Fatal("recycled slots leaked an entry")
	}
	c2.Release()
}

// TestCacheSizeIgnoresPooledArray: a table starts at minSlots and rehashes at
// three quarters of its own size whatever the capacity of the array the pool
// handed out — when a cache evicts must not depend on process history.
func TestCacheSizeIgnoresPooledArray(t *testing.T) {
	big := NewCache(sim.Day, sim.Day)
	for id := symtab.ID(1); id <= 1<<14; id++ {
		big.StoreID(0, id, true)
	}
	big.Release() // leaves a 32 Ki-slot array in the pool

	c := NewCache(sim.Second, sim.Second)
	defer c.Release()
	if got := len(c.ids.slots); got != minSlots {
		t.Fatalf("new table has %d slots, want %d", got, minSlots)
	}
	const fill = minSlots * 3 / 4
	for id := symtab.ID(1); id <= fill; id++ {
		c.StoreID(0, id, true)
	}
	if c.Len() != fill {
		t.Fatalf("Len = %d before the table is three quarters full, want %d", c.Len(), fill)
	}
	c.StoreID(sim.Minute, fill+1, true) // crosses 3/4: the expired entries go
	if c.Len() != 1 || len(c.ids.slots) != minSlots {
		t.Fatalf("after the rehash: Len %d on %d slots, want 1 on %d", c.Len(), len(c.ids.slots), minSlots)
	}
}

func TestIDTableGrowth(t *testing.T) {
	c := NewCache(1000000, 1000000)
	const n = 5000 // forces several doublings past the pooled 1024 slots
	for i := 1; i <= n; i++ {
		c.StoreID(0, symtab.ID(i), i%3 == 0)
	}
	for i := 1; i <= n; i++ {
		ans, ok := c.LookupID(1, symtab.ID(i))
		if !ok {
			t.Fatalf("id %d lost after growth", i)
		}
		if ans.NX != (i%3 == 0) {
			t.Fatalf("id %d answer corrupted after growth", i)
		}
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	c.Release()
}
