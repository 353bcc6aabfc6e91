package matcher

import "botmeter/internal/symtab"

// IDMatcher answers membership for interned symtab IDs: a bitset over the
// (dense, near-contiguous) IDs of one epoch's pool slice, with a [lo, hi]
// range pre-check so the common out-of-pool ID rejects in two compares.
type IDMatcher struct {
	name string
	lo   symtab.ID
	hi   symtab.ID // inclusive
	bits []uint64  // bit (id - lo) set ⇔ id matched
}

// NewIDMatcher builds a bitset matcher over ids. symtab.None entries are
// ignored.
func NewIDMatcher(name string, ids []symtab.ID) *IDMatcher {
	m := &IDMatcher{name: name}
	var lo, hi symtab.ID
	for _, id := range ids {
		if id == symtab.None {
			continue
		}
		if lo == 0 || id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
	}
	if lo == 0 {
		return m // empty
	}
	m.lo, m.hi = lo, hi
	m.bits = make([]uint64, (uint64(hi-lo)>>6)+1)
	for _, id := range ids {
		if id == symtab.None {
			continue
		}
		m.bits[uint64(id-lo)>>6] |= 1 << ((id - lo) & 63)
	}
	return m
}

// MatchID reports whether id is in the matched set. symtab.None never
// matches.
func (m *IDMatcher) MatchID(id symtab.ID) bool {
	if id < m.lo || id > m.hi || m.lo == 0 {
		return false
	}
	return m.bits[uint64(id-m.lo)>>6]&(1<<((id-m.lo)&63)) != 0
}

// Name identifies the matcher for reports.
func (m *IDMatcher) Name() string { return m.name }
