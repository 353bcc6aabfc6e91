package dnssim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// referenceCache is a trivially-correct model of both caches: a map holding
// every answer with its expiry, which never drops anything.
type referenceCache struct {
	posTTL, negTTL, staleTTL sim.Time
	entries                  map[string]refEntry
}

type refEntry struct {
	expires sim.Time
	nx      bool
}

func newReferenceCache(pos, neg, stale sim.Time) *referenceCache {
	return &referenceCache{posTTL: pos, negTTL: neg, staleTTL: stale, entries: make(map[string]refEntry)}
}

func (r *referenceCache) lookup(now sim.Time, name string) (Answer, bool) {
	e, ok := r.entries[name]
	if !ok || now >= e.expires {
		return Answer{}, false
	}
	return Answer{NX: e.nx, CacheHit: true}, true
}

func (r *referenceCache) lookupStale(now sim.Time, name string) (Answer, bool) {
	e, ok := r.entries[name]
	if !ok || r.staleTTL <= 0 || now < e.expires || now >= e.expires+r.staleTTL {
		return Answer{}, false
	}
	return Answer{NX: e.nx, CacheHit: true, Stale: true}, true
}

func (r *referenceCache) store(now sim.Time, name string, nx bool) {
	ttl := r.posTTL
	if nx {
		ttl = r.negTTL
	}
	if ttl <= 0 {
		return
	}
	r.entries[name] = refEntry{expires: now + ttl, nx: nx}
}

// byName is a cache driven by domain string, as the model is: the ID cache
// through its intern table, or a NameCache.
type byName interface {
	lookup(now sim.Time, name string) (Answer, bool)
	lookupStale(now sim.Time, name string) (Answer, bool)
	store(now sim.Time, name string, nx bool)
}

// keyedCache adapts a NameCache to byName.
type keyedCache struct{ *NameCache }

func (c keyedCache) lookup(now sim.Time, name string) (Answer, bool) { return c.Lookup(now, name) }
func (c keyedCache) lookupStale(now sim.Time, name string) (Answer, bool) {
	return c.LookupStale(now, name)
}
func (c keyedCache) store(now sim.Time, name string, nx bool) { c.Store(now, name, nx) }

// cacheKinds builds each cache over an 8-slot array with the given TTLs and
// stale window, so that it rehashes — and leaves expired entries behind —
// after a handful of stores.
var cacheKinds = []struct {
	name string
	make func(pos, neg, stale sim.Time) byName
}{
	{"id", func(pos, neg, stale sim.Time) byName {
		c := newSlotCache(pos, neg, 8)
		c.StaleTTL = stale
		return internedCache{Cache: c, tab: symtab.New()}
	}},
	{"name", func(pos, neg, stale sim.Time) byName {
		c := newNameCache(pos, neg, 8)
		c.StaleTTL = stale
		return keyedCache{c}
	}},
}

// modelNames are the names the model test draws from: ordinary ones, and
// the edges of a name-keyed cache — 1-byte names, the longest names it
// holds, and names that differ only in their last byte or only in length.
var modelNames = func() []string {
	long := strings.Repeat("x", 252)
	names := []string{"a", "b", "ab", long + "a", long + "b", long + "abc", long + "abd", long + "ab", long + "a.", long[:250] + "a"}
	for len(names) < 61 {
		names = append(names, fmt.Sprintf("n%d.example", len(names)))
	}
	return names
}()

// TestCacheMatchesReferenceModel drives random operation sequences (with
// monotonically advancing time, as the simulator guarantees within a run)
// through each cache and the model and requires identical fresh and stale
// answers. Both caches rehash many times per sequence; the model never does.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, kind := range cacheKinds {
		t.Run(kind.name, func(t *testing.T) {
			f := func(ops []uint16) bool {
				c := kind.make(sim.Day, 2*sim.Hour, 3*sim.Hour)
				ref := newReferenceCache(sim.Day, 2*sim.Hour, 3*sim.Hour)
				now := sim.Time(0)
				for _, op := range ops {
					now += sim.Time(op % 4096 * uint16(sim.Minute/64))
					name := modelNames[op%61]
					switch op % 3 {
					case 0:
						nx := op%2 == 0
						c.store(now, name, nx)
						ref.store(now, name, nx)
					case 1:
						got, gotOK := c.lookup(now, name)
						want, wantOK := ref.lookup(now, name)
						if gotOK != wantOK || got != want {
							return false
						}
					default:
						got, gotOK := c.lookupStale(now, name)
						want, wantOK := ref.lookupStale(now, name)
						if gotOK != wantOK || got != want {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCacheExpirySchedule walks one name through store, expiry, the stale
// window and a negative re-store: fixed expectations, checked on each cache
// and on the model the property test trusts.
func TestCacheExpirySchedule(t *testing.T) {
	hit := func(nx, stale bool) Answer { return Answer{NX: nx, CacheHit: true, Stale: stale} }
	steps := []struct {
		at     sim.Time
		store  bool
		nx     bool
		stale  bool // a stale lookup instead of a fresh one
		want   Answer
		wantOK bool
	}{
		{at: 0, store: true},
		{at: 10, want: hit(false, false), wantOK: true},
		{at: 99, want: hit(false, false), wantOK: true}, // about to expire
		{at: 99, stale: true},                           // still fresh: not the stale path's job
		{at: 100},                                       // expired -> miss
		{at: 120, stale: true, want: hit(false, true), wantOK: true},
		{at: 150, stale: true}, // stale horizon reached -> miss
		{at: 200, store: true, nx: true},
		{at: 205, want: hit(true, false), wantOK: true},
		{at: 210}, // negative TTL over -> miss
		{at: 211, stale: true, want: hit(true, true), wantOK: true},
	}
	const name = "schedule.example"
	ref := newReferenceCache(100, 10, 50)
	for i, st := range steps {
		if st.store {
			ref.store(st.at, name, st.nx)
			continue
		}
		model, modelOK := ref.lookup(st.at, name)
		if st.stale {
			model, modelOK = ref.lookupStale(st.at, name)
		}
		if model != st.want || modelOK != st.wantOK {
			t.Errorf("step %d (t=%d): model answered (%+v, %v), want (%+v, %v)", i, st.at, model, modelOK, st.want, st.wantOK)
		}
	}
	for _, kind := range cacheKinds {
		c := kind.make(100, 10, 50)
		for i, st := range steps {
			if st.store {
				c.store(st.at, name, st.nx)
				continue
			}
			got, ok := c.lookup(st.at, name)
			if st.stale {
				got, ok = c.lookupStale(st.at, name)
			}
			if got != st.want || ok != st.wantOK {
				t.Errorf("%s cache, step %d (t=%d): answered (%+v, %v), want (%+v, %v)", kind.name, i, st.at, got, ok, st.want, st.wantOK)
			}
		}
	}
}

// TestNetworkObservedNeverExceedsIssuedProperty: the cache can only remove
// visibility, never add it, regardless of query pattern.
func TestNetworkObservedNeverExceedsIssuedProperty(t *testing.T) {
	f := func(pattern []uint8, seed uint64) bool {
		net := NewNetwork(NetworkConfig{
			LocalServers: 2,
			PositiveTTL:  sim.Day,
			NegativeTTL:  sim.Hour,
			RecordRaw:    true,
		})
		net.Register("v0.com", "v1.com")
		now := sim.Time(0)
		for _, p := range pattern {
			now += sim.Time(p) * sim.Minute
			client := string(rune('a' + p%5))
			domain := string(rune('a'+p%9)) + ".com"
			if p%9 < 2 {
				domain = "v" + string(rune('0'+p%2)) + ".com"
			}
			if _, err := net.ClientQuery(now, client, domain); err != nil {
				return false
			}
		}
		return len(net.Border.Observed()) <= len(net.Raw())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
