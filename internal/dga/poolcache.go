package dga

import (
	"sync"

	"botmeter/internal/symtab"
)

// PoolCache memoizes PoolFor materialisations for one (model, seed) pair and
// is the single interning choke point of a trial: every pool it hands out is
// symbolized against the trial's symtab.Table, so the runner, the matcher
// and every estimator share one pool object per epoch instead of each
// regenerating (and re-hashing) tens of thousands of domain strings.
//
// RNG streams are untouched — PoolCache calls the model's PoolFor exactly as
// before (same seed, same split sequence, same draws) and interns the
// resulting strings afterwards, so symbolized and unsymbolized runs generate
// byte-identical domain sets.
//
// For is safe for concurrent use (per-server estimation goroutines may fault
// in pools concurrently); the returned *Pool is immutable after construction.
type PoolCache struct {
	model PoolModel
	seed  uint64
	tab   *symtab.Table

	mu      sync.Mutex
	byEpoch map[int]*Pool
}

// NewPoolCache builds a cache over model at seed. tab may be nil, in which
// case pools are memoized but not symbolized (lookups by name only).
func NewPoolCache(model PoolModel, seed uint64, tab *symtab.Table) *PoolCache {
	return &PoolCache{
		model:   model,
		seed:    seed,
		tab:     tab,
		byEpoch: make(map[int]*Pool),
	}
}

// For returns the (memoized, interned) pool for epoch.
func (c *PoolCache) For(epoch int) *Pool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.byEpoch[epoch]; ok {
		return p
	}
	p := c.model.PoolFor(c.seed, epoch)
	p.Intern(c.tab)
	c.byEpoch[epoch] = p
	return p
}

// Table returns the symtab table pools are interned against (nil if none).
func (c *PoolCache) Table() *symtab.Table { return c.tab }
