package estimators

import (
	"slices"
	"sync"

	"botmeter/internal/dga"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// This file holds the structure-of-arrays epoch state behind the MB and
// Coverage kernels (DESIGN.md §17): instead of per-bucket map[int]struct{}
// churn, an epoch's distinct (TTL-bucket, pool-position) observations live
// in one open-addressed pair set whose item array, once sorted, walks as
// flat per-bucket groups. The sets and the per-bucket extraction scratch
// are sync.Pool-recycled, so steady-state epoch closes allocate nothing.

// pairKey packs (bucket, position) into the set's uint64 key. Sorting keys
// ascending therefore groups by bucket, positions ascending inside each
// group — exactly the iteration order the segment pipeline needs.
func pairKey(bucket, pos int) uint64 {
	return uint64(uint32(bucket))<<32 | uint64(uint32(pos))
}

func pairBucket(key uint64) int { return int(key >> 32) }
func pairPos(key uint64) int    { return int(uint32(key)) }

// pairSet is an open-addressed set of pairKeys with an insertion log. The
// table stores key+1 (0 = empty slot); items holds every distinct key ever
// added, unordered until sorted() is called.
type pairSet struct {
	table []uint64
	items []uint64
}

const pairSetMinSlots = 64

// reset prepares the set for reuse (called by the pool on Get).
func (ps *pairSet) reset() {
	if ps.table == nil {
		ps.table = make([]uint64, pairSetMinSlots)
	}
	ps.items = ps.items[:0]
}

// add inserts the (bucket, pos) pair, reporting whether it was new.
func (ps *pairSet) add(bucket, pos int) bool {
	if len(ps.items)*4 >= len(ps.table)*3 {
		ps.grow()
	}
	key := pairKey(bucket, pos)
	mask := uint64(len(ps.table) - 1)
	// Fibonacci hashing spreads the packed keys across the table.
	i := (key * 0x9e3779b97f4a7c15) >> 32 & mask
	for {
		slot := ps.table[i]
		if slot == 0 {
			ps.table[i] = key + 1
			ps.items = append(ps.items, key)
			return true
		}
		if slot == key+1 {
			return false
		}
		i = (i + 1) & mask
	}
}

// len reports the number of distinct pairs.
func (ps *pairSet) len() int { return len(ps.items) }

// sorted orders the item log ascending (bucket-major, then position) in
// place and returns it. Safe to call repeatedly; the set stays usable.
func (ps *pairSet) sorted() []uint64 {
	slices.Sort(ps.items)
	return ps.items
}

// grow doubles the table and re-inserts the items.
func (ps *pairSet) grow() {
	next := make([]uint64, len(ps.table)*2)
	mask := uint64(len(next) - 1)
	for _, key := range ps.items {
		i := (key * 0x9e3779b97f4a7c15) >> 32 & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = key + 1
	}
	ps.table = next
}

var pairSetPool = sync.Pool{New: func() any { return new(pairSet) }}

func getPairSet() *pairSet {
	ps := pairSetPool.Get().(*pairSet)
	ps.reset()
	return ps
}

func putPairSet(ps *pairSet) {
	if ps == nil {
		return
	}
	// Zero only the occupied slots: for the sparse-activity workloads the
	// incremental path exists for, clearing tracked keys beats memclr of
	// the whole table. (Re-probing each key touches exactly the slots add
	// filled, since deletion never happens.)
	if len(ps.items)*8 >= len(ps.table) {
		clear(ps.table)
	} else {
		mask := uint64(len(ps.table) - 1)
		for _, key := range ps.items {
			i := (key * 0x9e3779b97f4a7c15) >> 32 & mask
			for ps.table[i] != key+1 {
				i = (i + 1) & mask
			}
			ps.table[i] = 0
		}
	}
	ps.items = ps.items[:0]
	pairSetPool.Put(ps)
}

// pairFold folds matched records into one epoch's distinct (TTL-bucket,
// pool-position) set — the sufficient statistic MB's and Coverage's streams
// embed and estimate from. The set comes from the pool; Release hands it
// back.
type pairFold struct {
	pool       *dga.Pool
	cfg        Config
	epochStart sim.Time
	numBuckets int
	ps         *pairSet
}

func newPairFold(pool *dga.Pool, epoch int, cfg Config, partition bool) pairFold {
	return pairFold{
		pool:       pool,
		cfg:        cfg,
		epochStart: sim.Time(epoch) * cfg.EpochLen,
		numBuckets: ttlBuckets(cfg, partition),
		ps:         getPairSet(),
	}
}

// Observe adds the pair of the record's pool position; a collision name
// (past the pool's end) or a registered position says nothing about NXDs.
// Duplicates — the common case once a position has been seen in a TTL
// window — cost one probe. (Within one pool, domain ↔ position is a
// bijection, so deduplicating by position is deduplicating by domain.)
func (f *pairFold) Observe(rec trace.ObservedRecord) {
	pos := int(rec.Pos)
	if pos >= f.pool.Size() || f.pool.ValidAt(pos) {
		return
	}
	f.ps.add(ttlBucketOf(rec.T, f.epochStart, f.cfg, f.numBuckets), pos)
}

// segScratch is the per-close extraction scratch: the current bucket's
// contracted indices, the membership bitset over the contracted circle, and
// the reusable segment output buffer.
type segScratch struct {
	idxs []int32
	bits []uint64
	segs []segment
}

func (sc *segScratch) ensureBits(circle int) {
	words := (circle + 63) / 64
	if cap(sc.bits) < words {
		sc.bits = make([]uint64, words)
	}
	sc.bits = sc.bits[:words]
}

// clearBits zeroes exactly the bits set for the current bucket's indices.
func (sc *segScratch) clearBits() {
	for _, i := range sc.idxs {
		sc.bits[i>>6] &^= 1 << (uint(i) & 63)
	}
}

var segScratchPool = sync.Pool{New: func() any { return new(segScratch) }}

func getSegScratch() *segScratch   { return segScratchPool.Get().(*segScratch) }
func putSegScratch(sc *segScratch) { segScratchPool.Put(sc) }

// ttlBuckets returns the number of negative-TTL sub-windows per epoch (1
// when partitioning is off or the TTL spans the epoch).
func ttlBuckets(cfg Config, partition bool) int {
	if partition && cfg.NegativeTTL < cfg.EpochLen {
		return int((cfg.EpochLen + cfg.NegativeTTL - 1) / cfg.NegativeTTL)
	}
	return 1
}

// ttlBucketOf places a record time in its TTL bucket, clamped to the valid
// range exactly like the historical per-record arithmetic.
func ttlBucketOf(t, epochStart sim.Time, cfg Config, numBuckets int) int {
	if numBuckets <= 1 {
		return 0
	}
	b := int((t - epochStart) / cfg.NegativeTTL)
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// Releasable is implemented by EpochStreams holding pooled state; a Walk
// calls Release exactly once, when it closes the cell, returning the state
// to its pool.
type Releasable interface {
	Release()
}
