package dnssim

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// TestNameCacheEdgeNames: names at the edges of an entry — one byte, 253
// and 255 bytes, and pairs that differ only in their last byte or only in
// length — each answer their own stored answer, before and after the
// rehashes a small table takes, and a sibling never stored misses.
func TestNameCacheEdgeNames(t *testing.T) {
	long := strings.Repeat("y", 252)
	stored := []string{
		"a", "z", "",
		long + "a", long + "ab", long + "abc",
		long[:251] + "a", long[:251] + "b",
		"d.example", "d.example.", "d.exampl",
	}
	never := []string{"b", "aa", long + "b", long + "abd", long[:251], long[:251] + "c", "d.examplf", "d.example.c"}
	c := newNameCache(sim.Hour, sim.Hour, 8)
	check := func(when string) {
		t.Helper()
		for i, name := range stored {
			if ans, ok := c.Lookup(1, name); !ok || ans.NX != (i%2 == 0) {
				t.Errorf("%s: %d-byte name %q answered (%+v, %v), want NX %v", when, len(name), name, ans, ok, i%2 == 0)
			}
		}
		for _, name := range never {
			if ans, ok := c.Lookup(1, name); ok {
				t.Errorf("%s: %d-byte name never stored answered %+v", when, len(name), ans)
			}
		}
	}
	for i, name := range stored {
		c.Store(0, name, i%2 == 0)
	}
	check("after the stores")
	for i := 0; i < 2000; i++ { // many rehashes, and several pages
		c.Store(0, fmt.Sprintf("%s%d", long[:240], i), false)
	}
	check("after 2 000 more names")
	if c.Len() != len(stored)+2000 {
		t.Errorf("Len = %d, want %d", c.Len(), len(stored)+2000)
	}
}

// TestNameCacheLongNames: a name longer than the length byte counts is never
// cached, and never truncated into the entry of its 255-byte prefix: it
// misses fresh and stale every time, and the prefix keeps its own answer.
func TestNameCacheLongNames(t *testing.T) {
	prefix := strings.Repeat("p", 255)
	c := NewNameCache(sim.Hour, sim.Hour)
	c.StaleTTL = sim.Hour
	c.Store(0, prefix, true)
	for _, name := range []string{prefix + "q", prefix + prefix, strings.Repeat("p", 1000)} {
		for i := 0; i < 3; i++ {
			c.Store(sim.Time(i), name, false)
			if ans, ok := c.Lookup(sim.Time(i), name); ok {
				t.Fatalf("%d-byte name answered %+v from the cache", len(name), ans)
			}
			if ans, ok := c.LookupStale(sim.Hour+sim.Time(i), name); ok {
				t.Fatalf("%d-byte name answered %+v stale", len(name), ans)
			}
		}
	}
	if ans, ok := c.Lookup(1, prefix); !ok || !ans.NX {
		t.Fatalf("the 255-byte prefix answered (%+v, %v), want its own NX", ans, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want the prefix alone", c.Len())
	}
}

// TestNameCacheFlat is the resolver's bounded-memory contract: with 1 s TTLs
// and a 1 s stale window, a million distinct names at 5 000 a second keep at
// most 10 000 servable at any time, and the cache — its entries and its
// pages — stays under a bound set by that window, and is flat from the first
// eviction on.
func TestNameCacheFlat(t *testing.T) {
	const (
		names  = 1_000_000
		rate   = 5000                      // names per virtual second
		window = 2 * rate                  // names within TTL + StaleTTL
		maxLen = 1 + 7 + len(".flat.test") // the longest name below
		// The table doubles only while the survivors fill more than half
		// of it, so it settles under 4 × window slots, three quarters of
		// which it fills before the next rehash.
		maxEntries = 3 * window
		maxBytes   = maxEntries*(entryHead+maxLen) + pageSize
	)
	c := NewNameCache(sim.Second, sim.Second)
	c.StaleTTL = sim.Second

	var firstEviction int
	var early, late struct{ entries, bytes int }
	buf := []byte("n")
	for i := 0; i < names; i++ {
		buf = strconv.AppendInt(buf[:1], int64(i), 10)
		buf = append(buf, ".flat.test"...)
		c.Store(sim.Time(i)*sim.Second/rate, string(buf), true)
		if firstEviction == 0 && c.Tallies().Evictions > 0 {
			firstEviction = i
		}
		if firstEviction == 0 {
			continue
		}
		seen := &early
		if i >= names/2 {
			seen = &late
		}
		seen.entries = max(seen.entries, c.Len())
		seen.bytes = max(seen.bytes, len(c.pages)*pageSize)
	}
	if firstEviction == 0 || firstEviction > 2*window {
		t.Fatalf("first eviction after %d names, want one by %d", firstEviction, 2*window)
	}
	if early.entries > maxEntries || early.bytes > maxBytes {
		t.Errorf("after the first eviction the cache held up to %d entries on %d page bytes; bound %d, %d",
			early.entries, early.bytes, maxEntries, maxBytes)
	}
	if late.entries > early.entries || late.bytes > early.bytes {
		t.Errorf("not flat: the second half held up to %d entries on %d page bytes, the first %d on %d",
			late.entries, late.bytes, early.entries, early.bytes)
	}
	// Every name is new, so each store added an entry and each eviction
	// took one.
	if tl := c.Tallies(); tl.Stores-tl.Evictions != c.Len() {
		t.Errorf("%d stores less %d evictions, Len %d", tl.Stores, tl.Evictions, c.Len())
	}
}

// TestNameCacheTallies: both caches keep the same tallies, event for event,
// over one script: hits, a miss, a stale hit, an overwrite, and a rehash
// that leaves an expired entry behind.
func TestNameCacheTallies(t *testing.T) {
	want := CacheTallies{Lookups: 2, Hits: 1, StaleHits: 1, Stores: 8, Evictions: 1}
	for _, kind := range cacheKinds {
		c := kind.make(sim.Second, sim.Second, sim.Second)
		c.store(0, "a.example", true)
		c.store(0, "a.example", false) // an overwrite holds no new entry
		c.lookup(1, "a.example")
		c.lookup(1, "b.example")
		c.lookupStale(sim.Second+1, "a.example")
		for i := 0; i < 6; i++ { // the sixth fills the 8 slots past three quarters
			c.store(3*sim.Second, fmt.Sprintf("n%d.example", i), true)
		}
		if got := c.Tallies(); got != want || got.Misses() != 1 || c.Len() != 6 {
			t.Errorf("%s cache: tallies %+v (misses %d), Len %d; want %+v, 1 miss, Len 6", kind.name, got, got.Misses(), c.Len(), want)
		}
	}
}

// benchNames returns n distinct names shaped like the DGA names the resolver
// sees: 16 to 20 characters under a short zone.
func benchNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = strconv.FormatUint(uint64(i)*0x9e3779b97f4a7c15>>12, 36) + ".example"
	}
	return names
}

// BenchmarkNameCache is the resolver shard's cost per name: a hit, a miss
// followed by the store of its answer, and the live heap bytes per name
// after 75 000 stores. "name" is the NameCache; "symtab+id" is the intern
// table in front of the ID cache that the resolver kept before, on the same
// names: Lookup, then Intern of a clone on a miss, then LookupID/StoreID.
func BenchmarkNameCache(b *testing.B) {
	const hot, stores = 4096, 75_000
	type shard struct {
		lookup func(name string) bool
		store  func(name string)
	}
	kinds := []struct {
		name string
		make func() shard
	}{
		{"name", func() shard {
			c := NewNameCache(sim.Day, sim.Day)
			return shard{
				lookup: func(name string) bool { _, ok := c.Lookup(1, name); return ok },
				store:  func(name string) { c.Store(1, name, true) },
			}
		}},
		{"symtab+id", func() shard {
			c, tab := NewCache(sim.Day, sim.Day), symtab.New()
			var id symtab.ID
			return shard{
				lookup: func(name string) bool {
					var ok bool
					if id, ok = tab.Lookup(name); !ok {
						id = tab.Intern(strings.Clone(name))
					}
					_, ok = c.LookupID(1, id)
					return ok
				},
				store: func(string) { c.StoreID(1, id, true) },
			}
		}},
	}
	for _, kind := range kinds {
		b.Run(kind.name+"/hit", func(b *testing.B) {
			s, names := kind.make(), benchNames(hot)
			for _, name := range names {
				s.lookup(name)
				s.store(name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !s.lookup(names[i%hot]) {
					b.Fatal("unexpected miss")
				}
			}
		})
		b.Run(kind.name+"/miss-store", func(b *testing.B) {
			s, names := kind.make(), benchNames(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for _, name := range names {
				if s.lookup(name) {
					b.Fatal("unexpected hit")
				}
				s.store(name)
			}
		})
		b.Run(kind.name+"/bytes", func(b *testing.B) {
			names := benchNames(stores)
			var perName float64
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				// Twice: the second empties the ID cache's slot-array pool.
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&before)
				s := kind.make()
				for _, name := range names {
					s.lookup(name)
					s.store(name)
				}
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&after)
				perName = float64(after.HeapAlloc-before.HeapAlloc) / stores
				runtime.KeepAlive(s)
			}
			b.ReportMetric(perName, "B/name")
		})
	}
}
