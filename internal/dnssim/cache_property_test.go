package dnssim

import (
	"testing"
	"testing/quick"

	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// referenceCache is a trivially-correct model of the ID-keyed Cache: a map
// holding every answer with its expiry, which never drops anything.
type referenceCache struct {
	posTTL, negTTL, staleTTL sim.Time
	entries                  map[symtab.ID]refEntry
}

type refEntry struct {
	expires sim.Time
	nx      bool
}

func newReferenceCache(pos, neg, stale sim.Time) *referenceCache {
	return &referenceCache{posTTL: pos, negTTL: neg, staleTTL: stale, entries: make(map[symtab.ID]refEntry)}
}

func (r *referenceCache) lookup(now sim.Time, id symtab.ID) (Answer, bool) {
	e, ok := r.entries[id]
	if !ok || now >= e.expires {
		return Answer{}, false
	}
	return Answer{NX: e.nx, CacheHit: true}, true
}

func (r *referenceCache) lookupStale(now sim.Time, id symtab.ID) (Answer, bool) {
	e, ok := r.entries[id]
	if !ok || r.staleTTL <= 0 || now < e.expires || now >= e.expires+r.staleTTL {
		return Answer{}, false
	}
	return Answer{NX: e.nx, CacheHit: true, Stale: true}, true
}

func (r *referenceCache) store(now sim.Time, id symtab.ID, nx bool) {
	ttl := r.posTTL
	if nx {
		ttl = r.negTTL
	}
	if ttl <= 0 {
		return
	}
	r.entries[id] = refEntry{expires: now + ttl, nx: nx}
}

// TestCacheMatchesReferenceModel drives random operation sequences (with
// monotonically advancing time, as the simulator guarantees within a run)
// through both implementations and requires identical fresh and stale
// answers. The cache starts on an 8-slot array, so it rehashes — and leaves
// expired entries behind — many times per sequence; the model never does.
func TestCacheMatchesReferenceModel(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newSlotCache(sim.Day, 2*sim.Hour, 8)
		c.StaleTTL = 3 * sim.Hour
		ref := newReferenceCache(sim.Day, 2*sim.Hour, 3*sim.Hour)
		now := sim.Time(0)
		for _, op := range ops {
			now += sim.Time(op % 4096 * uint16(sim.Minute/64))
			id := symtab.ID(op%61 + 1)
			switch op % 3 {
			case 0:
				nx := op%2 == 0
				c.StoreID(now, id, nx)
				ref.store(now, id, nx)
			case 1:
				got, gotOK := c.LookupID(now, id)
				want, wantOK := ref.lookup(now, id)
				if gotOK != wantOK || got != want {
					return false
				}
			default:
				got, gotOK := c.LookupStaleID(now, id)
				want, wantOK := ref.lookupStale(now, id)
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
}

// TestCacheExpirySchedule walks one name through store, expiry, the stale
// window and a negative re-store: fixed expectations, checked on the cache
// and on the model the property test trusts.
func TestCacheExpirySchedule(t *testing.T) {
	c := NewCache(100, 10)
	c.StaleTTL = 50
	defer c.Release()
	ref := newReferenceCache(100, 10, 50)
	const id = symtab.ID(3)

	hit := func(nx, stale bool) Answer { return Answer{NX: nx, CacheHit: true, Stale: stale} }
	steps := []struct {
		at     sim.Time
		store  bool
		nx     bool
		stale  bool // LookupStaleID instead of LookupID
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
	for i, st := range steps {
		if st.store {
			c.StoreID(st.at, id, st.nx)
			ref.store(st.at, id, st.nx)
			continue
		}
		got, ok := c.LookupID(st.at, id)
		model, modelOK := ref.lookup(st.at, id)
		if st.stale {
			got, ok = c.LookupStaleID(st.at, id)
			model, modelOK = ref.lookupStale(st.at, id)
		}
		if got != st.want || ok != st.wantOK {
			t.Errorf("step %d (t=%d): cache answered (%+v, %v), want (%+v, %v)", i, st.at, got, ok, st.want, st.wantOK)
		}
		if model != st.want || modelOK != st.wantOK {
			t.Errorf("step %d (t=%d): model answered (%+v, %v), want (%+v, %v)", i, st.at, model, modelOK, st.want, st.wantOK)
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
