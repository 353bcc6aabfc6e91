package dga

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"botmeter/internal/symtab"
)

func testModel() DrainReplenish {
	return DrainReplenish{NX: 40, C2: 2, Gen: Generator{Charset: "abcdef", MinLen: 6, MaxLen: 9, TLDs: []string{"com", "net"}}}
}

// awaitNoLivePools collects until every shared pool is gone and its cleanup
// has emptied the map, failing the test if a few cycles do not get there.
func awaitNoLivePools(t *testing.T) {
	t.Helper()
	for i := 0; i < 20; i++ {
		runtime.GC()
		livePools.Lock()
		entries := len(livePools.m)
		livePools.Unlock()
		if PoolsLive() == 0 && entries == 0 {
			return
		}
		time.Sleep(time.Millisecond) // cleanups run on their own goroutine
	}
	livePools.Lock()
	defer livePools.Unlock()
	t.Fatalf("%d live pools, %d map entries after 20 collections", PoolsLive(), len(livePools.m))
}

// TestPoolCacheSharesByKey: caches without a table hand out one *Pool per
// (model, seed, epoch); any differing part of the key, or a table, gets its
// own.
func TestPoolCacheSharesByKey(t *testing.T) {
	base := testModel()
	a := NewPoolCache(base, 7, nil)
	// A second model value, equal but not the same memory (TLDs is a slice).
	same := testModel()
	b := NewPoolCache(same, 7, nil)
	p := a.For(3)
	if q := b.For(3); q != p {
		t.Fatal("two caches over equal (model, seed, epoch) built two pools")
	}
	if q := a.For(3); q != p {
		t.Fatal("a cache forgot its own pool")
	}

	differing := map[string]*PoolCache{
		"seed": NewPoolCache(base, 8, nil),
	}
	for name, mutate := range map[string]func(*DrainReplenish){
		"NX":      func(m *DrainReplenish) { m.NX++ },
		"C2":      func(m *DrainReplenish) { m.C2++ },
		"Period":  func(m *DrainReplenish) { m.Period = 4 },
		"Charset": func(m *DrainReplenish) { m.Gen.Charset = "abcdeg" },
		"MinLen":  func(m *DrainReplenish) { m.Gen.MinLen-- },
		"MaxLen":  func(m *DrainReplenish) { m.Gen.MaxLen++ },
		"TLDs":    func(m *DrainReplenish) { m.Gen.TLDs = []string{"com", "org"} },
	} {
		m := testModel()
		mutate(&m)
		differing[name] = NewPoolCache(m, 7, nil)
	}
	// Another model type over the same generator.
	differing["type"] = NewPoolCache(MultipleMixture{UsefulNX: 40, UsefulC2: 2, Gen: base.Gen}, 7, nil)
	for name, c := range differing {
		if c.For(3) == p {
			t.Errorf("a cache differing in %s shares the pool", name)
		}
	}
	if a.For(4) == p {
		t.Error("two epochs share a pool")
	}

	// Intern writes the table's IDs into the pool, so a cache over a table
	// neither takes a shared pool nor offers its own.
	ta, tb := NewPoolCache(base, 7, symtab.New()), NewPoolCache(base, 7, symtab.New())
	pa, pb := ta.For(3), tb.For(3)
	if pa == p || pb == p || pa == pb {
		t.Fatal("a cache over a table shares its pool")
	}
	if pa.IDs == nil || p.IDs != nil {
		t.Fatal("interned and shared pools are mixed up")
	}
	if NewPoolCache(base, 7, nil).For(3) != p {
		t.Fatal("a cache over a table displaced the shared pool")
	}
	runtime.KeepAlive(a)
}

// TestPoolCacheConcurrentFor: many caches asking for the same pools at once
// (run with -race) all get the one pool, and it is built once.
func TestPoolCacheConcurrentFor(t *testing.T) {
	const holders, epochs = 8, 5
	model := testModel()
	built := PoolsBuilt()
	caches := make([]*PoolCache, holders)
	got := make([][epochs]*Pool, holders)
	var wg sync.WaitGroup
	for i := range caches {
		caches[i] = NewPoolCache(model, 99, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ep := range got[i] {
				got[i][ep] = caches[i].For(ep)
				// The name index is the one part of a shared pool built late.
				if pos, ok := got[i][ep].Position(got[i][ep].Domains[1]); !ok || pos != 1 {
					t.Errorf("Position = %d,%v, want 1,true", pos, ok)
				}
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("holder %d got other pools than holder 0", i)
		}
	}
	if n := PoolsBuilt() - built; n != epochs {
		t.Fatalf("%d holders over %d epochs built %d pools, want %d", holders, epochs, n, epochs)
	}
	runtime.KeepAlive(caches)
}

// TestPoolsLiveFollowsHolders: a shared pool lives exactly as long as some
// cache holds it, and the map keeps nothing once the last is dropped.
func TestPoolsLiveFollowsHolders(t *testing.T) {
	awaitNoLivePools(t)
	model := testModel()
	a, b := NewPoolCache(model, 5, nil), NewPoolCache(model, 5, nil)
	for ep := 0; ep < 3; ep++ {
		a.For(ep)
		b.For(ep)
	}
	if n := PoolsLive(); n != 3 {
		t.Fatalf("PoolsLive = %d with two holders of three epochs, want 3", n)
	}
	runtime.KeepAlive(a)
	a = nil
	runtime.GC()
	runtime.GC()
	if n := PoolsLive(); n != 3 {
		t.Fatalf("PoolsLive = %d with one holder left, want 3", n)
	}
	runtime.KeepAlive(b)
	b = nil
	awaitNoLivePools(t)
}
