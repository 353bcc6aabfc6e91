// Package symtab provides a per-trial domain intern table mapping domain
// strings to dense uint32 IDs.
//
// BotMeter's estimators never depend on domain *content* — only on set
// membership, pool position and timing (DESIGN.md §6) — so the per-trial hot
// path (simulate → cache → match → estimate) can operate on compact integer
// IDs and keep heap-allocated strings at the I/O boundary (trace emission,
// artifact rendering). A Table interns every domain a trial can produce
// (pool domains, C2 names, the benign zone, ad-hoc query names) exactly once,
// where the name enters the simulator; all downstream structures — pool
// position arrays, the DNS cache's open-addressed table, the registry and
// matcher bitsets — index by ID.
//
// Tables are the simulator's alone. A live daemon keeps none, so nothing on
// the live path grows with the names it has ever seen: the resolver caches
// by the name itself (dnssim.NameCache), whose eviction drops the name, and
// the vantage hands its engine the matcher's own spelling of a name.
//
// IDs are dense and allocation-ordered: the first interned string gets ID 1,
// the second ID 2, and so on. ID 0 is the reserved sentinel None meaning
// "no ID". Inside the simulator (dnssim, botnet, faults) every name carries
// a real ID and None is refused; on the analysis side, records read back
// from disk traces carry None and are matched and estimated by their
// strings.
//
// Tables are recycled across trials via a package-level sync.Pool (Get /
// Release), mirroring dnssim's slot-array pool, so steady-state allocations
// do not grow with trial count.
//
// The table is internally mutex-guarded: interning happens at pool
// construction time (dga.PoolCache funnels every PoolFor through one table)
// which may be reached concurrently from per-server estimation goroutines,
// but never from per-record hot loops — those only read pre-resolved IDs.
package symtab

import (
	"sync"
)

// ID is a dense interned-domain identifier. The zero value is None.
type ID uint32

// None is the reserved "no ID" sentinel. Strings are never assigned ID 0; a
// trace record carrying None is handled by its domain string.
const None ID = 0

const (
	// initialSlots is the starting size of the open-addressed index.
	// Must be a power of two.
	initialSlots = 1024
	// maxLoadNum/maxLoadDen: grow when len > slots*3/4.
	maxLoadNum = 3
	maxLoadDen = 4
)

// Table interns strings to dense IDs. The zero value is NOT ready for use;
// call New or Get.
type Table struct {
	mu sync.Mutex
	// strs[i] holds the string for ID i+1 (IDs are 1-based, dense).
	strs []string
	// hashes[i] is the low 32 bits of strs[i]'s hash — all a slot index ever
	// uses — so doubling the index re-places IDs from this array, in order,
	// without touching a string. Always as long as strs.
	hashes []uint32
	// idx is the open-addressed FNV-1a index. Each slot stores an ID
	// (0 = empty). Size is always a power of two; mask = len(idx)-1.
	idx  []ID
	mask uint32
}

// New returns an empty table ready for use.
func New() *Table {
	t := &Table{}
	t.init(initialSlots)
	return t
}

func (t *Table) init(slots int) {
	t.idx = make([]ID, slots)
	t.mask = uint32(slots - 1)
}

// fnv1a is the 64-bit FNV-1a hash of s.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Intern returns the ID for s, assigning the next dense ID on first sight.
// Interning the same string twice returns the same ID. The empty string is
// internable like any other (it receives a real ID; callers that want to
// treat "" as absent should check before calling).
func (t *Table) Intern(s string) ID {
	t.mu.Lock()
	id := t.internLocked(s)
	t.mu.Unlock()
	return id
}

func (t *Table) internLocked(s string) ID {
	if t.idx == nil {
		t.init(initialSlots)
	}
	h := fnv1a(s)
	slot := uint32(h) & t.mask
	for {
		id := t.idx[slot]
		if id == 0 {
			break // empty: not present
		}
		if t.strs[id-1] == s {
			return id
		}
		slot = (slot + 1) & t.mask
	}
	t.strs = append(t.strs, s)
	t.hashes = append(t.hashes, uint32(h))
	id := ID(len(t.strs))
	t.idx[slot] = id
	if len(t.strs)*maxLoadDen > len(t.idx)*maxLoadNum {
		t.growLocked()
	}
	return id
}

func (t *Table) growLocked() {
	t.init(len(t.idx) * 2)
	for i, h := range t.hashes {
		slot := h & t.mask
		for t.idx[slot] != 0 {
			slot = (slot + 1) & t.mask
		}
		t.idx[slot] = ID(i + 1)
	}
}

// Lookup returns the ID previously assigned to s, or (None, false) if s has
// never been interned.
func (t *Table) Lookup(s string) (ID, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.idx == nil {
		return None, false
	}
	h := fnv1a(s)
	slot := uint32(h) & t.mask
	for {
		id := t.idx[slot]
		if id == 0 {
			return None, false
		}
		if t.strs[id-1] == s {
			return id, true
		}
		slot = (slot + 1) & t.mask
	}
}

// Resolve returns the string for id. Resolving None or an out-of-range ID
// returns "".
func (t *Table) Resolve(id ID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 || int(id) > len(t.strs) {
		return ""
	}
	return t.strs[id-1]
}

// Len reports how many distinct strings have been interned.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.strs)
}

// Reset empties the table for reuse, retaining allocated capacity. IDs
// assigned before Reset are invalidated.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resetLocked()
}

func (t *Table) resetLocked() {
	t.strs = t.strs[:0]
	t.hashes = t.hashes[:0]
	if t.idx == nil {
		t.init(initialSlots)
		return
	}
	for i := range t.idx {
		t.idx[i] = 0
	}
}

// tablePool recycles Tables across trials so steady-state allocations do not
// grow with trial count.
var tablePool = sync.Pool{New: func() any { return New() }}

// Get returns a reset Table from the package pool.
func Get() *Table {
	t := tablePool.Get().(*Table)
	// Tables are reset on Release, but reset defensively in case a caller
	// released a dirty table via a future code path.
	if len(t.strs) != 0 {
		t.Reset()
	}
	return t
}

// Release resets t and returns it to the package pool. Release is
// idempotent in the sense that releasing an already-reset table is safe, but
// callers must not use t after Release (another trial may own it).
func (t *Table) Release() {
	t.Reset()
	tablePool.Put(t)
}
