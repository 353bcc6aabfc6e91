package dga

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"sync"

	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// Pool is the ordered set of domains a DGA emits for one epoch. Order
// matters: the uniform barrel queries positions in order and the randomcut
// barrel treats positions as a circle. ValidPositions marks the θ∃ domains
// the botmaster registered as C2 rendezvous points; every other domain is an
// NXD.
//
// A pool can additionally be symbolized against a symtab.Table (see Intern):
// IDs then holds the dense interned ID of each domain and PositionID answers
// in O(1) via an offset array. Position is the string boundary; its index —
// the epoch's one name→position table — is built on the first lookup by
// name, so all-ID trials never pay for it.
type Pool struct {
	Domains        []string
	ValidPositions []int // sorted positions of registered (C2) domains

	// IDs is parallel to Domains once Intern has run; nil otherwise.
	IDs []symtab.ID

	valid []bool // valid[i] == position i holds a registered domain

	// index is Position's name→position table: open addressing with linear
	// probing over a power-of-two number of slots, at least twice the
	// pool's size. A slot holds position+1 in the bits posMask selects (0 =
	// empty) and the top bits of the name's hash in the others, so a probe
	// reads a name only when those bits agree. It holds no pointers for the
	// GC to scan, and it is never serialised, so a per-process hash seed is
	// fine.
	indexOnce sync.Once
	index     []uint32
	posMask   uint32
	// names is where a probe reads the name: position p's entry is the
	// 1<<nameShift bytes at p<<nameShift, its length byte and then the name,
	// so the entry follows from the position and a hit touches one cache
	// line of it. A name too long for its entry has length byte longName and
	// is compared with Domains[p] instead.
	names     []byte
	nameShift uint

	// ID→position offset table: byID[id-baseID] stores pos+1 (0 = absent).
	baseID symtab.ID
	byID   []int32
}

// NewPool builds a pool from an ordered domain list and the positions of
// the registered domains. Positions out of range are ignored.
func NewPool(domains []string, validPositions []int) *Pool {
	p := &Pool{
		Domains: domains,
		valid:   make([]bool, len(domains)),
	}
	for _, v := range validPositions {
		if v >= 0 && v < len(domains) {
			if !p.valid[v] {
				p.valid[v] = true
				p.ValidPositions = append(p.ValidPositions, v)
			}
		}
	}
	sortInts(p.ValidPositions)
	return p
}

// Intern symbolizes the pool against tab: every domain is interned (idempotent
// — the same string always yields the same ID) and the ID→position offset
// table is built so PositionID is an O(1) array read. Safe to call once per
// pool; PoolCache does this automatically.
func (p *Pool) Intern(tab *symtab.Table) {
	if tab == nil || p.IDs != nil {
		return
	}
	ids := make([]symtab.ID, len(p.Domains))
	var lo, hi symtab.ID
	for i, d := range p.Domains {
		id := tab.Intern(d)
		ids[i] = id
		if i == 0 || id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
	}
	p.IDs = ids
	if len(ids) == 0 {
		return
	}
	p.baseID = lo
	p.byID = make([]int32, hi-lo+1)
	for i, id := range ids {
		p.byID[id-lo] = int32(i) + 1
	}
}

// PositionID returns the pool position of the domain with interned ID id.
// It is an O(1) array read; id==symtab.None or an ID outside this pool
// returns false. Valid only after Intern.
func (p *Pool) PositionID(id symtab.ID) (int, bool) {
	if id < p.baseID || int(id-p.baseID) >= len(p.byID) {
		return 0, false
	}
	v := p.byID[id-p.baseID]
	return int(v) - 1, v != 0
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Size returns the total pool size θ∃ + θ∅.
func (p *Pool) Size() int { return len(p.Domains) }

// NXCount returns θ∅, the number of unregistered domains.
func (p *Pool) NXCount() int { return len(p.Domains) - len(p.ValidPositions) }

// Position returns the pool position of domain d, spelled as the pool
// spells it (lower case, no trailing dot). A name the pool holds twice is at
// its last position, as a map from name to position would have it. A hit
// reads d, one index slot and one names entry; a miss reads d and the index.
func (p *Pool) Position(d string) (int, bool) {
	p.indexOnce.Do(p.buildIndex)
	if v := p.index[p.slot(d, maphash.String(indexSeed, d))]; v != 0 {
		return int(v&p.posMask) - 1, true
	}
	return 0, false
}

// indexSeed seeds every pool's name index in this process.
var indexSeed = maphash.MakeSeed()

// slot is the slot of d's probe sequence that holds d, or the empty slot
// that ends the sequence; h is d's hash.
func (p *Pool) slot(d string, h uint64) uint64 {
	tag := uint32(h>>32) &^ p.posMask
	mask := uint64(len(p.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if v := p.index[i]; v == 0 || v&^p.posMask == tag && p.holds(v&p.posMask-1, d) {
			return i
		}
	}
}

// holds reports whether position pos holds the name d, reading the
// position's entry in names.
func (p *Pool) holds(pos uint32, d string) bool {
	e := p.names[pos<<p.nameShift:]
	n := int(e[0])
	if n == longName {
		return p.Domains[pos] == d
	}
	return n == len(d) && string(e[1:1+n]) == d
}

const (
	// maxNameShift caps a names entry at one 64-byte cache line.
	maxNameShift = 6
	// longName is the length byte of a name its entry cannot hold.
	longName = 0xFF
)

// buildIndex fills the names entries and the name index, a position's
// entry before its slot. At most half the slots are taken, so every probe
// sequence meets an empty one; a repeated name takes over its slot, leaving
// the last position.
func (p *Pool) buildIndex() {
	longest := 0
	for _, d := range p.Domains {
		longest = max(longest, len(d))
	}
	p.nameShift = min(uint(bits.Len(uint(longest))), maxNameShift)
	p.names = make([]byte, len(p.Domains)<<p.nameShift)
	size := 2
	for size < 2*len(p.Domains) {
		size <<= 1
	}
	p.index = make([]uint32, size)
	p.posMask = 1<<bits.Len(uint(len(p.Domains))) - 1
	for pos, d := range p.Domains {
		e := p.names[pos<<p.nameShift:][:1<<p.nameShift]
		if len(d) < len(e) {
			e[0] = byte(len(d))
			copy(e[1:], d)
		} else {
			e[0] = longName
		}
		h := maphash.String(indexSeed, d)
		p.index[p.slot(d, h)] = uint32(h>>32)&^p.posMask | uint32(pos+1)
	}
}

// ValidAt reports whether position i holds a registered (resolving) domain.
func (p *Pool) ValidAt(i int) bool {
	return i >= 0 && i < len(p.valid) && p.valid[i]
}

// PoolModel deterministically produces the pool for a given epoch. The same
// (seed, epoch) always yields the same pool — the property that lets both
// the botmaster and every bot (and BotMeter's matcher) agree on the domain
// set.
type PoolModel interface {
	// Class reports the taxonomy cell of this model.
	Class() PoolClass
	// PoolFor materialises the epoch's pool.
	PoolFor(seed uint64, epoch int) *Pool
	// NXDomains returns θ∅ for sizing estimator parameters.
	NXDomains() int
	// C2Domains returns θ∃.
	C2Domains() int
}

// DrainReplenish regenerates the full pool every Period epochs (Period 1 =
// daily, the paper's default; Necurs uses Period 4).
type DrainReplenish struct {
	NX     int // θ∅
	C2     int // θ∃
	Period int // epochs between regenerations; 0 or 1 = every epoch
	Gen    Generator
}

// Class implements PoolModel.
func (m DrainReplenish) Class() PoolClass { return DrainReplenishPool }

// NXDomains implements PoolModel.
func (m DrainReplenish) NXDomains() int { return m.NX }

// C2Domains implements PoolModel.
func (m DrainReplenish) C2Domains() int { return m.C2 }

// PoolFor implements PoolModel.
func (m DrainReplenish) PoolFor(seed uint64, epoch int) *Pool {
	period := m.Period
	if period < 1 {
		period = 1
	}
	gen := epoch / period
	rng := sim.SplitFrom(seed, uint64(gen)*2654435761+1)
	domains := m.Gen.GenerateUnique(rng, m.NX+m.C2, nil)
	valid := make([]int, m.C2)
	for i, pos := range rng.PermInto(nil, len(domains))[:m.C2] {
		valid[i] = int(pos)
	}
	return NewPool(domains, valid)
}

// SlidingWindow keeps a window of daily blocks: at epoch e the pool is the
// concatenation of the blocks for epochs [e-Back, e+Forward], each holding
// PerDay fresh domains (paper §III-A; Ranbyus: Back=29, Forward=0,
// PerDay=40; PushDo: Back=30, Forward=15, PerDay=30).
type SlidingWindow struct {
	PerDay  int
	Back    int // days of history retained
	Forward int // days of future domains pre-generated
	C2      int // registered domains per epoch's pool
	Gen     Generator
}

// Class implements PoolModel.
func (m SlidingWindow) Class() PoolClass { return SlidingWindowPool }

// NXDomains implements PoolModel.
func (m SlidingWindow) NXDomains() int {
	return m.PerDay*(m.Back+m.Forward+1) - m.C2
}

// C2Domains implements PoolModel.
func (m SlidingWindow) C2Domains() int { return m.C2 }

// PoolFor implements PoolModel.
func (m SlidingWindow) PoolFor(seed uint64, epoch int) *Pool {
	domains := make([]string, 0, m.PerDay*(m.Back+m.Forward+1))
	for day := epoch - m.Back; day <= epoch+m.Forward; day++ {
		domains = append(domains, m.block(seed, day)...)
	}
	// The botmaster registers C2 domains deterministically per epoch,
	// preferring the freshest block (real operators register new domains as
	// old ones are sinkholed).
	rng := sim.SplitFrom(seed, uint64(uint32(epoch))*0x85ebca6b+7)
	valid := make([]int, 0, m.C2)
	freshStart := len(domains) - m.PerDay*(m.Forward+1)
	if freshStart < 0 {
		freshStart = 0
	}
	span := len(domains) - freshStart
	for _, off := range rng.PermInto(nil, span) {
		if len(valid) == m.C2 {
			break
		}
		valid = append(valid, freshStart+int(off))
	}
	return NewPool(domains, valid)
}

// block returns the PerDay domains generated on the given absolute day.
// Negative days are valid (bots that started before the observation epoch).
func (m SlidingWindow) block(seed uint64, day int) []string {
	rng := sim.SplitFrom(seed, uint64(uint32(day))*0xc2b2ae35+3)
	return m.Gen.GenerateUnique(rng, m.PerDay, nil)
}

// MultipleMixture interleaves one useful drain-and-replenish generator with
// one or more noise generators whose domains are never registered (paper
// §III-A; Pykspa: useful pool 200, noise pool 16K).
type MultipleMixture struct {
	UsefulNX   int
	UsefulC2   int
	NoiseSizes []int
	Gen        Generator
}

// Class implements PoolModel.
func (m MultipleMixture) Class() PoolClass { return MultipleMixturePool }

// NXDomains implements PoolModel.
func (m MultipleMixture) NXDomains() int {
	total := m.UsefulNX
	for _, n := range m.NoiseSizes {
		total += n
	}
	return total
}

// C2Domains implements PoolModel.
func (m MultipleMixture) C2Domains() int { return m.UsefulC2 }

// PoolFor implements PoolModel.
func (m MultipleMixture) PoolFor(seed uint64, epoch int) *Pool {
	rng := sim.SplitFrom(seed, uint64(uint32(epoch))*0x27d4eb2f+11)
	useful := m.Gen.GenerateUnique(rng, m.UsefulNX+m.UsefulC2, nil)
	exclude := make(map[string]struct{}, len(useful))
	for _, d := range useful {
		exclude[d] = struct{}{}
	}
	pools := [][]string{useful}
	for i, size := range m.NoiseSizes {
		noiseRNG := sim.SplitFrom(seed, uint64(uint32(epoch))*0x27d4eb2f+uint64(i)*0x165667b1+13)
		noise := m.Gen.GenerateUnique(noiseRNG, size, exclude)
		for _, d := range noise {
			exclude[d] = struct{}{}
		}
		pools = append(pools, noise)
	}
	// Interleave the instances round-robin, as concurrently running DGA
	// instances would emit them.
	domains := make([]string, 0, m.NXDomains()+m.UsefulC2)
	usefulPos := make(map[string]struct{}, len(useful))
	idx := make([]int, len(pools))
	for {
		progressed := false
		for pi := range pools {
			if idx[pi] < len(pools[pi]) {
				d := pools[pi][idx[pi]]
				if pi == 0 {
					usefulPos[d] = struct{}{}
				}
				domains = append(domains, d)
				idx[pi]++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	// Registered domains come from the useful instance only.
	usefulIdx := make([]int, 0, len(useful))
	for i, d := range domains {
		if _, ok := usefulPos[d]; ok {
			usefulIdx = append(usefulIdx, i)
		}
	}
	valid := make([]int, 0, m.UsefulC2)
	for _, off := range rng.PermInto(nil, len(usefulIdx)) {
		if len(valid) == m.UsefulC2 {
			break
		}
		valid = append(valid, usefulIdx[off])
	}
	return NewPool(domains, valid)
}

// validatePool is a debug helper ensuring model invariants; exposed via
// tests.
func validatePool(p *Pool, wantC2 int) error {
	if len(p.ValidPositions) != wantC2 {
		return fmt.Errorf("pool has %d valid positions, want %d", len(p.ValidPositions), wantC2)
	}
	seen := make(map[string]struct{}, len(p.Domains))
	for _, d := range p.Domains {
		if _, dup := seen[d]; dup {
			return fmt.Errorf("duplicate domain %q", d)
		}
		seen[d] = struct{}{}
	}
	return nil
}
