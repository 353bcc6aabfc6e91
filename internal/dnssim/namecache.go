package dnssim

import (
	"encoding/binary"
	"hash/maphash"

	"botmeter/internal/sim"
)

// NameCache is the answer cache of a live resolver's worker shard: the
// same answers, TTLs, serve-stale window and dnssim_cache_* instruments as
// Cache, keyed by the query name itself rather than by an interned ID. It
// holds each name once, in its own entry, so what it evicts is everything
// it held of the name — a resolver that caches this way keeps nothing per
// name past the name's expiry. Not safe for concurrent use; a shard's owner
// serialises its calls.
//
// A slot is one uint64: the high half of the name's hash (its top bit set,
// so no occupied slot is 0) over a reference to the entry, page<<16 |
// offset. An entry is its expiry, its NX flag, a length byte and the name,
// packed into fixed pages that hold no Go pointers, so the collector never
// scans them and a page is reused in place. The hash is a seeded maphash,
// so a client cannot choose names that collide. A name longer than the
// length byte counts (longer than any name dnswire decodes) is not cached:
// it misses on lookup and is ignored on store, and is resolved every time.
type NameCache struct {
	rule
	seed  maphash.Seed
	slots []uint64
	mask  uint64
	used  int
	pages []namePage
}

// namePage is one fixed page of entries; b[:n] is in use.
type namePage struct {
	b *[pageSize]byte
	n int
}

const (
	// pageSize is the size of one page of entries. Fixed pages let a
	// rehash rewrite them in place; an append-grown slab would leave its
	// discarded copies resident.
	pageSize = 64 << 10
	// maxPages is as many pages as a slot's 16-bit page index reaches.
	maxPages = 1 << 16
	// entryHead is an entry's bytes before the name: the expiry (8 bytes,
	// little-endian), the NX flag (1) and the name's length (1).
	entryHead = 10
	// maxCachedName is the longest name an entry holds.
	maxCachedName = 255

	tagBit  = 1 << 63
	refMask = 1<<32 - 1
)

// NewNameCache builds a name-keyed cache with the given TTLs. Non-positive
// TTLs disable caching for that answer class.
func NewNameCache(positiveTTL, negativeTTL sim.Time) *NameCache {
	return newNameCache(positiveTTL, negativeTTL, minSlots)
}

// newNameCache builds the cache over a slot array of the given power-of-two
// size.
func newNameCache(positiveTTL, negativeTTL sim.Time, slots int) *NameCache {
	return &NameCache{
		rule:  rule{positiveTTL: positiveTTL, negativeTTL: negativeTTL},
		seed:  maphash.MakeSeed(),
		slots: make([]uint64, slots),
		mask:  uint64(slots - 1),
	}
}

// Lookup consults the cache at virtual time now. On a hit it returns the
// cached answer. Expired entries miss; they stay (LookupStale may still
// serve them) until a rehash finds them past the stale horizon.
func (c *NameCache) Lookup(now sim.Time, name string) (Answer, bool) {
	expires, nx, ok := c.get(name)
	return c.fresh(now, expires, nx, ok)
}

// LookupStale serves an expired-but-retained entry while the upstream is
// unreachable (RFC 8767): only past its TTL and within StaleTTL of it.
func (c *NameCache) LookupStale(now sim.Time, name string) (Answer, bool) {
	expires, nx, ok := c.get(name)
	return c.stale(now, expires, nx, ok)
}

// Store records an answer at virtual time now, using the TTL matching its
// class. Answers whose class has caching disabled are not stored. The name
// is copied; the caller's string may be reused as soon as Store returns.
func (c *NameCache) Store(now sim.Time, name string, nx bool) {
	expires, ok := c.expiry(now, nx)
	if !ok || len(name) > maxCachedName {
		return
	}
	h := maphash.String(c.seed, name)
	i, found := c.probe(h, name)
	if found {
		putStamp(c.entry(c.slots[i]), expires, nx)
		c.stored(0, 0)
		return
	}
	ref, ok := c.append(name, expires, nx)
	if !ok {
		return
	}
	c.slots[i] = tagOf(h) | ref
	c.used++
	dropped := 0
	if c.used*4 > len(c.slots)*3 {
		dropped = c.rehash(c.horizon(now))
	}
	c.stored(1-dropped, dropped)
}

// Len returns the number of cached entries, including expired ones no
// rehash has dropped yet.
func (c *NameCache) Len() int { return c.used }

func tagOf(h uint64) uint64 { return (h | tagBit) &^ refMask }

func (c *NameCache) get(name string) (expires sim.Time, nx, ok bool) {
	if len(name) > maxCachedName {
		return 0, false, false
	}
	i, ok := c.probe(maphash.String(c.seed, name), name)
	if !ok {
		return 0, false, false
	}
	e := c.entry(c.slots[i])
	return expiresOf(e), e[8] != 0, true
}

// probe finds name's slot, or the empty slot where it would go.
func (c *NameCache) probe(h uint64, name string) (i uint64, found bool) {
	tag := tagOf(h)
	for i = h & c.mask; ; i = (i + 1) & c.mask {
		s := c.slots[i]
		if s == 0 {
			return i, false
		}
		if s&^refMask == tag && string(c.entry(s)[entryHead:]) == name {
			return i, true
		}
	}
}

// entry returns the bytes of the entry a slot refers to, name included.
func (c *NameCache) entry(slot uint64) []byte {
	p, off := slot>>16&(maxPages-1), slot&(pageSize-1)
	b := c.pages[p].b[off:]
	return b[:entryHead+int(b[entryHead-1])]
}

func putStamp(e []byte, expires sim.Time, nx bool) {
	binary.LittleEndian.PutUint64(e, uint64(expires))
	e[8] = 0
	if nx {
		e[8] = 1
	}
}

// append writes a new entry at the end of the last page, starting a page
// when it does not fit, and returns its reference. It refuses the entry
// when every page a reference can name is in use.
func (c *NameCache) append(name string, expires sim.Time, nx bool) (ref uint64, ok bool) {
	size := entryHead + len(name)
	if len(c.pages) == 0 || c.pages[len(c.pages)-1].n+size > pageSize {
		if len(c.pages) == maxPages {
			return 0, false
		}
		c.pages = append(c.pages, namePage{b: new([pageSize]byte)})
	}
	p := &c.pages[len(c.pages)-1]
	e := p.b[p.n : p.n+size]
	putStamp(e, expires, nx)
	e[entryHead-1] = byte(len(name))
	copy(e[entryHead:], name)
	ref = uint64(len(c.pages)-1)<<16 | uint64(p.n)
	p.n += size
	return ref, true
}

// rehash rebuilds the slot array, leaving behind every entry that expires
// at or before horizon (the caller passes now - StaleTTL). The array
// doubles only if the survivors fill more than half of it, as the ID
// table's does. When it has dropped anything it also packs the survivors
// to the front of the pages, in place, and frees the pages that empties,
// so the pages hold exactly what the slots refer to. Returns the number of
// entries left behind.
func (c *NameCache) rehash(horizon sim.Time) (dropped int) {
	live := 0
	for _, p := range c.pages {
		for off := 0; off < p.n; off += entryHead + int(p.b[off+entryHead-1]) {
			if expiresOf(p.b[off:]) > horizon {
				live++
			}
		}
	}
	dropped = c.used - live
	if size := len(c.slots); live*2 > size {
		c.slots = make([]uint64, 2*size)
	} else {
		clear(c.slots)
	}
	c.mask = uint64(len(c.slots) - 1)
	c.used = live

	// Survivors only ever move towards the front: an entry that does not
	// fit the rest of the page being written came from a later page, so
	// the next page's start is at or before where it sits.
	wp, wn := 0, 0
	for rp := range c.pages {
		b := c.pages[rp].b
		for off := 0; off < c.pages[rp].n; {
			size := entryHead + int(b[off+entryHead-1])
			e := b[off : off+size]
			off += size
			if expiresOf(e) <= horizon {
				continue
			}
			if wn+size > pageSize {
				c.pages[wp].n = wn
				wp, wn = wp+1, 0
			}
			if wp != rp || wn != off-size {
				copy(c.pages[wp].b[wn:], e)
				e = c.pages[wp].b[wn : wn+size]
			}
			h := maphash.Bytes(c.seed, e[entryHead:])
			i := h & c.mask
			for c.slots[i] != 0 {
				i = (i + 1) & c.mask
			}
			c.slots[i] = tagOf(h) | uint64(wp)<<16 | uint64(wn)
			wn += size
		}
	}
	if len(c.pages) > 0 {
		c.pages[wp].n = wn
		clear(c.pages[wp+1:])
		c.pages = c.pages[:wp+1]
	}
	return dropped
}

func expiresOf(e []byte) sim.Time { return sim.Time(binary.LittleEndian.Uint64(e)) }
