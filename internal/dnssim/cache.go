// Package dnssim models the hierarchical DNS infrastructure of a large
// network (paper §II, Figure 1): clients query local caching-and-forwarding
// DNS servers; cache misses are forwarded upward (optionally through
// mid-tier servers) to a border DNS server, which is the only point where
// traffic is observable. Positive answers and NXDomain answers are cached
// with independent TTLs (RFC 1912 operational guidance: positive TTLs of a
// day, negative TTLs of minutes to hours).
package dnssim

import (
	"sync"

	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// Answer is the outcome of a DNS resolution.
type Answer struct {
	// NX reports a non-existent domain (NXDomain).
	NX bool
	// CacheHit reports that the answer was served from the local cache
	// without any upward forwarding (i.e. invisible at the vantage point).
	CacheHit bool
	// ServFail reports a resolution failure (lost datagram, upstream
	// blackout, or an upstream SERVFAIL) after any configured retries.
	// ServFail answers are never cached.
	ServFail bool
	// Stale reports the answer was served from an expired cache entry
	// under RFC 8767-style graceful degradation while the upstream was
	// unreachable. Implies CacheHit.
	Stale bool
}

// Cache is a DNS answer cache with separate positive and negative TTLs,
// keyed by interned domain ID (symtab.ID): one flat open-addressed table.
// The zero value is unusable; construct with NewCache. Expired entries miss
// on lookup and are dropped for good the next time the table rehashes (see
// idTable.grow), which is what bounds memory. A key of symtab.None misses on
// lookup and is ignored on store. The simulator's caches are Caches; a live
// resolver, which has names and no intern table, keeps a NameCache.
type Cache struct {
	rule
	ids idTable
}

// rule is what every cache shares: the TTL of each answer class, the
// serve-stale window, the hit tallies and the instruments. A cache finds an
// entry and keeps it; what the entry answers, whether an answer is stored
// and when an entry can be dropped are decided here, once for both caches.
type rule struct {
	positiveTTL sim.Time
	negativeTTL sim.Time

	// StaleTTL, when positive, keeps expired entries servable for that long
	// past their expiry so a stale lookup can answer from them while the
	// upstream is unreachable (RFC 8767 serve-stale). Zero disables it.
	StaleTTL sim.Time

	lookups int
	hits    int

	// m holds the optional obs instruments (see Instrument); the zero
	// value is disabled and costs one branch per event.
	m cacheMetrics
}

// fresh answers a lookup at now from the entry found (ok) with the given
// expiry: a hit until the entry expires, a miss from then on.
func (r *rule) fresh(now, expires sim.Time, nx, ok bool) (Answer, bool) {
	r.lookups++
	r.m.lookups.Inc()
	if !ok || now >= expires {
		r.m.misses.Inc()
		return Answer{}, false
	}
	r.hits++
	r.m.hits.Inc()
	return Answer{NX: nx, CacheHit: true}, true
}

// stale answers a serve-stale lookup from the entry found: only past its
// expiry and within StaleTTL of it; a fresh entry is the fresh lookup's job.
func (r *rule) stale(now, expires sim.Time, nx, ok bool) (Answer, bool) {
	if !ok || r.StaleTTL <= 0 || now < expires || now >= expires+r.StaleTTL {
		return Answer{}, false
	}
	r.m.staleHits.Inc()
	return Answer{NX: nx, CacheHit: true, Stale: true}, true
}

// expiry is when an answer stored at now expires, under the TTL of its
// class; ok is false when that class is not cached.
func (r *rule) expiry(now sim.Time, nx bool) (expires sim.Time, ok bool) {
	ttl := r.positiveTTL
	if nx {
		ttl = r.negativeTTL
	}
	return now + ttl, ttl > 0
}

// horizon is the expiry at and before which an entry can no longer be
// served at now, fresh or stale: a rehash leaves such entries behind.
func (r *rule) horizon(now sim.Time) sim.Time { return now - max(r.StaleTTL, 0) }

// stored counts one store that changed the cache's Len by grew, dropped of
// its entries in a rehash included. Uninstrumented, it is one branch.
func (r *rule) stored(grew, dropped int) {
	if r.m.stores != nil {
		r.m.store(grew, dropped)
	}
}

// HitRate returns the fraction of lookups served from cache.
func (r *rule) HitRate() float64 {
	if r.lookups == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.lookups)
}

// idSlots recycles slot arrays across simulations and across one cache's
// rehashes. Experiment sweeps build thousands of short-lived hierarchies, and
// allocating each cache's growth steps from scratch dominated the allocator
// profile. Arrays in the pool are zero over their whole capacity; a table
// uses a prefix of the one it holds, so its size — and with it the point at
// which it rehashes and evicts — follows from its own stores alone, never
// from which array the pool happened to hand out.
var idSlots sync.Pool

// minSlots is the size every table starts at.
const minSlots = 1024

// takeSlots returns a zeroed slot array of the given length, recycled when
// the pool has one large enough.
func takeSlots(size int) []idEntry {
	if s, _ := idSlots.Get().([]idEntry); cap(s) >= size {
		return s[:size]
	}
	return make([]idEntry, size)
}

// giveSlots clears the used prefix of a pooled array and returns it.
func giveSlots(s []idEntry) {
	clear(s)
	idSlots.Put(s[:cap(s)])
}

// NewCache builds a cache with the given TTLs. Non-positive TTLs disable
// caching for that answer class.
func NewCache(positiveTTL, negativeTTL sim.Time) *Cache {
	c := &Cache{rule: rule{positiveTTL: positiveTTL, negativeTTL: negativeTTL}}
	c.ids.adopt(takeSlots(minSlots), true)
	return c
}

// Release returns the cache's pooled slot array to the shared pool. Release
// is idempotent: the first call donates the storage, later calls are no-ops.
// The cache stays usable after Release — lookups miss and stores lazily
// allocate fresh (unpooled) storage — so a stray query after
// Network.ReleaseCaches is safe and never pollutes the pool with small
// replacement arrays.
func (c *Cache) Release() {
	if c.ids.pooled {
		c.m.entries.Add(-float64(c.Len()))
		giveSlots(c.ids.slots)
		c.ids = idTable{}
	}
}

// LookupID consults the cache at virtual time now. On a hit it returns the
// cached answer. Expired entries miss; they stay in the table (LookupStaleID
// may still serve them) until a rehash finds them past the stale horizon.
func (c *Cache) LookupID(now sim.Time, id symtab.ID) (Answer, bool) {
	e, ok := c.ids.get(id)
	return c.fresh(now, e.expires, e.nx, ok)
}

// LookupStaleID serves an expired-but-retained entry — the graceful
// degradation path taken when the upstream is unreachable (RFC 8767). It
// returns ok only for entries past their TTL but within StaleTTL of it;
// fresh entries are LookupID's job.
func (c *Cache) LookupStaleID(now sim.Time, id symtab.ID) (Answer, bool) {
	e, ok := c.ids.get(id)
	return c.stale(now, e.expires, e.nx, ok)
}

// StoreID records an answer at virtual time now, using the TTL matching its
// class. Answers whose class has caching disabled are not stored.
func (c *Cache) StoreID(now sim.Time, id symtab.ID, nx bool) {
	expires, ok := c.expiry(now, nx)
	if !ok {
		return
	}
	before := c.Len()
	dropped := c.ids.put(idEntry{id: id, nx: nx, expires: expires}, c.horizon(now))
	c.stored(c.Len()-before, dropped)
}

// Len returns the number of cached entries, including expired ones no
// rehash has dropped yet.
func (c *Cache) Len() int { return c.ids.used }

// idEntry is one slot of the table: a cached answer keyed by interned domain
// ID. id == symtab.None marks an empty slot.
type idEntry struct {
	id      symtab.ID
	nx      bool
	expires sim.Time
}

// idTable is a flat open-addressed (linear probing, power-of-two sized)
// answer table keyed by symtab.ID. It has no tombstones: overwrites reuse the
// slot, expired entries are skipped on read and left behind when the table
// rehashes.
type idTable struct {
	slots []idEntry
	mask  uint32
	used  int
	// pooled records that slots came from idSlots and go back there when
	// the table leaves them; after Cache.Release the table works on fresh
	// unpooled storage.
	pooled bool
}

// adopt installs a (zeroed, power-of-two sized) slot array.
func (t *idTable) adopt(slots []idEntry, pooled bool) {
	*t = idTable{slots: slots, mask: uint32(len(slots) - 1), pooled: pooled}
}

// idHash spreads sequential dense IDs across slots (Fibonacci hashing).
func idHash(id symtab.ID) uint32 { return uint32(id) * 0x9e3779b1 }

func (t *idTable) get(id symtab.ID) (idEntry, bool) {
	if t.slots == nil || id == symtab.None {
		return idEntry{}, false
	}
	slot := idHash(id) & t.mask
	for {
		e := t.slots[slot]
		if e.id == symtab.None {
			return idEntry{}, false
		}
		if e.id == id {
			return e, true
		}
		slot = (slot + 1) & t.mask
	}
}

// put stores e under e.id. When the insert fills the table past three
// quarters it rehashes, leaving behind every entry with expires <= horizon,
// and reports how many it left.
func (t *idTable) put(e idEntry, horizon sim.Time) (dropped int) {
	if e.id == symtab.None {
		return 0
	}
	if t.slots == nil {
		// Post-Release use: fresh unpooled storage (see Cache.Release).
		t.adopt(make([]idEntry, minSlots), false)
	}
	slot := idHash(e.id) & t.mask
	for {
		cur := &t.slots[slot]
		if cur.id == symtab.None {
			*cur = e
			t.used++
			if t.used*4 > len(t.slots)*3 {
				return t.grow(horizon)
			}
			return 0
		}
		if cur.id == e.id {
			*cur = e
			return 0
		}
		slot = (slot + 1) & t.mask
	}
}

// grow rehashes into another slot array, keeping only entries that can still
// be served (expires > horizon; the caller passes now - StaleTTL). The table
// doubles only if the survivors fill more than half of the old one, so a
// long-running cache whose entries expire settles at a size that fits its
// live set. Returns the number of entries left behind.
func (t *idTable) grow(horizon sim.Time) (dropped int) {
	old := t.slots
	live := 0
	for i := range old {
		if old[i].id != symtab.None && old[i].expires > horizon {
			live++
		}
	}
	size := len(old)
	if live*2 > size {
		size *= 2
	}
	if t.pooled {
		t.slots = takeSlots(size)
		defer giveSlots(old)
	} else {
		t.slots = make([]idEntry, size)
	}
	t.mask = uint32(size - 1)
	for _, e := range old {
		if e.id == symtab.None || e.expires <= horizon {
			continue
		}
		slot := idHash(e.id) & t.mask
		for t.slots[slot].id != symtab.None {
			slot = (slot + 1) & t.mask
		}
		t.slots[slot] = e
	}
	dropped = t.used - live
	t.used = live
	return dropped
}
