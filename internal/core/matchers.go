package core

import (
	"sync"

	"botmeter/internal/d3"
	"botmeter/internal/dga"
	"botmeter/internal/matcher"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// EpochMatchers builds and caches the per-epoch domain matchers of one
// target DGA (paper Figure 2, steps 2–4): the family's pool for the epoch,
// optionally narrowed to what the D³ front end detected. It is safe for
// concurrent use, which lets the streaming engine's ingest shards share
// one instance — pool reconstruction is the expensive part and must happen
// once per epoch, not once per shard.
//
// When constructed over a dga.PoolCache whose pools are symbolized
// (interned against a symtab table), each epoch additionally gets an ID
// bitset matcher: records that originated in-process carry interned IDs and
// match in O(1) without string hashing, while the exact string Set is built
// lazily, only if a record without an ID (disk traces, benign traffic)
// actually arrives.
type EpochMatchers struct {
	family    dga.Spec
	detection *d3.Window
	pools     *dga.PoolCache

	mu      sync.Mutex
	byEpoch map[int]*EpochMatcher
}

// NewEpochMatchers builds the matcher cache. A nil detection window means
// perfect pool knowledge. pools supplies the (when its table is set,
// symbolized) pools, so the matcher, the estimators and the simulator all
// reuse one pool object per epoch; it lives as long as the matchers, which
// pin the same strings.
func NewEpochMatchers(family dga.Spec, detection *d3.Window, pools *dga.PoolCache) *EpochMatchers {
	return &EpochMatchers{
		family:    family,
		detection: detection,
		pools:     pools,
		byEpoch:   make(map[int]*EpochMatcher),
	}
}

// EpochMatcher matches one epoch's records. Records carrying an interned
// symtab ID take the bitset fast path; everything else goes through the
// exact string set, which is built on first need.
type EpochMatcher struct {
	ids *matcher.IDMatcher // nil when the epoch's pool is not symbolized

	setOnce  sync.Once
	set      *matcher.Set
	buildSet func() *matcher.Set
}

// MatchRecord reports whether the record is attributed to the DGA.
func (m *EpochMatcher) MatchRecord(rec trace.ObservedRecord) bool {
	if m.ids != nil && rec.ID != symtab.None {
		return m.ids.MatchID(rec.ID)
	}
	return m.Set().Match(rec.Domain)
}

// Match reports whether a bare domain string is attributed to the DGA.
func (m *EpochMatcher) Match(domain string) bool { return m.Set().Match(domain) }

// Set returns the epoch's exact string matcher, building it on first use.
func (m *EpochMatcher) Set() *matcher.Set {
	m.setOnce.Do(func() { m.set = m.buildSet() })
	return m.set
}

// For returns the matcher for one epoch, building it on first use. The
// returned matcher must be treated as read-only; concurrent MatchRecord
// calls are safe because it is never mutated after construction.
func (em *EpochMatchers) For(epoch int) *EpochMatcher {
	em.mu.Lock()
	defer em.mu.Unlock()
	if m, ok := em.byEpoch[epoch]; ok {
		return m
	}
	pool := em.pools.For(epoch)
	m := &EpochMatcher{}
	if em.detection != nil {
		rep := em.detection.Detect(epoch, pool)
		if pool.IDs != nil {
			// The bitset covers what the string set below covers: the
			// detected pool positions plus the collision names. Those are
			// non-pool names, so they are interned here — a record of one
			// (a benign lookup the detector misattributes) carries that ID
			// when it comes from a simulated border, and none off a trace.
			tab := em.pools.Table()
			ids := make([]symtab.ID, 0, len(rep.DetectedPositions)+len(rep.Collisions))
			for _, pos := range rep.DetectedPositions {
				ids = append(ids, pool.IDs[pos])
			}
			for _, d := range rep.Collisions {
				ids = append(ids, tab.Intern(d))
			}
			m.ids = matcher.NewIDMatcher(em.family.Name, ids)
		}
		m.buildSet = func() *matcher.Set { return matcher.NewSet(em.family.Name, rep.All()) }
	} else {
		if pool.IDs != nil {
			m.ids = matcher.NewIDMatcher(em.family.Name, pool.IDs)
		}
		m.buildSet = func() *matcher.Set { return matcher.NewSet(em.family.Name, pool.Domains) }
	}
	em.byEpoch[epoch] = m
	return m
}

// Epochs reports how many epoch matchers are currently cached.
func (em *EpochMatchers) Epochs() int {
	em.mu.Lock()
	defer em.mu.Unlock()
	return len(em.byEpoch)
}
