package matcher

import (
	"botmeter/internal/dga"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// Attribution is one epoch's matcher (paper Figure 2, steps 2–4): it
// resolves a lookup to its position in the epoch's pool, once, and
// everything behind it — the estimators, the engine's cells, checkpoints —
// works on that integer. A position is a pure function of (family, seed,
// epoch), so it means the same in every process and at every vantage
// without any table.
//
// The detector's collision names (benign names it attributes to the DGA)
// are not in the pool; collision k takes position pool.Size()+k.
//
// An Attribution is immutable once built and safe for concurrent use.
type Attribution struct {
	pool *dga.Pool
	// detected has bit p set when the detector reported pool position p;
	// nil means it reported the whole pool.
	detected   []uint64
	collisions []string
	// collisionPos maps a collision name to its position. The pool's own
	// names are in the pool's index, the epoch's one name→position map.
	collisionPos map[string]int32
}

// NewAttribution builds the matcher for one epoch's pool. detected lists
// the pool positions a D³ report holds and collisions its collision names;
// a nil detected means perfect pool knowledge.
func NewAttribution(pool *dga.Pool, detected []int, collisions []string) *Attribution {
	a := &Attribution{pool: pool, collisions: collisions}
	if detected != nil {
		a.detected = make([]uint64, (pool.Size()+63)/64)
		for _, p := range detected {
			a.detected[p>>6] |= 1 << (uint(p) & 63)
		}
	}
	if len(collisions) > 0 {
		a.collisionPos = make(map[string]int32, len(collisions))
		for k, d := range collisions {
			a.collisionPos[normalize(d)] = int32(pool.Size() + k)
		}
	}
	return a
}

// Resolve is the one place a name becomes a position. A record carries
// either an interned ID (a simulated border; the ID is from the table the
// pool is interned in) or only a name (a trace off disk, a wire tap); the
// name is canonicalised here — lower case, no trailing dot — and nowhere
// else. ok is false for a lookup the DGA is not charged with: outside the
// pool and the collisions, or at a position the detector missed.
func (a *Attribution) Resolve(rec trace.ObservedRecord) (pos int32, ok bool) {
	if rec.ID != symtab.None && a.pool.IDs != nil {
		if p, in := a.pool.PositionID(rec.ID); in {
			return int32(p), a.reported(p)
		}
		if a.collisionPos == nil {
			return 0, false
		}
		pos, ok = a.collisionPos[normalize(rec.Domain)]
		return pos, ok
	}
	name := normalize(rec.Domain)
	if p, in := a.pool.Position(name); in {
		return int32(p), a.reported(p)
	}
	pos, ok = a.collisionPos[name]
	return pos, ok
}

// Name is the way back: the canonical name at a position Resolve returned.
func (a *Attribution) Name(pos int32) string {
	if n := a.pool.Size(); int(pos) >= n {
		return a.collisions[int(pos)-n]
	}
	return a.pool.Domains[pos]
}

func (a *Attribution) reported(p int) bool {
	return a.detected == nil || a.detected[p>>6]&(1<<(uint(p)&63)) != 0
}
