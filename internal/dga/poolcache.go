package dga

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"botmeter/internal/obs"
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
// A pool is a pure function of (model, seed, epoch), so caches without a
// table go one step further and share it across the process: the live
// engine, the engine restored from its checkpoint, a batch pass and a
// coordinator's successive refreshes all read the one *Pool that is alive
// for their key (livePools). A cache over a table keeps its pools private,
// because Pool.Intern writes that table's IDs into the pool.
//
// For is safe for concurrent use (per-server estimation goroutines may fault
// in pools concurrently); the returned *Pool is immutable after construction
// apart from the name index behind its sync.Once.
type PoolCache struct {
	model PoolModel
	seed  uint64
	tab   *symtab.Table

	mu      sync.Mutex
	byEpoch map[int]*Pool
	// shared is the model's part of a livePools key. It is rendered on the
	// first miss, not in NewPoolCache: an estimator handed an un-normalised
	// Config builds a cache per call and most never ask it for a pool.
	shared string
}

// NewPoolCache builds a cache over model at seed. tab may be nil, in which
// case pools are memoized but not symbolized (lookups by name only) and
// shared with every other such cache over an equal model and seed.
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
	var p *Pool
	if c.tab == nil {
		if c.shared == "" {
			// A Generator holds a []string, so a model value is not
			// comparable; its printed form with the type name is.
			c.shared = fmt.Sprintf("%T%+v", c.model, c.model)
		}
		p = livePool(poolKey{c.shared, c.seed, epoch}, c.model)
	} else {
		p = c.model.PoolFor(c.seed, epoch)
		p.Intern(c.tab)
		poolsBuilt.Add(1)
	}
	c.byEpoch[epoch] = p
	return p
}

// Table returns the symtab table pools are interned against (nil if none).
func (c *PoolCache) Table() *symtab.Table { return c.tab }

type poolKey struct {
	model string
	seed  uint64
	epoch int
}

// livePools holds the process's un-interned pools by weak reference: a pool
// lives exactly as long as some PoolCache holds it, and its entry goes when
// the collector takes it. There is deliberately no bound to tune — a strong
// map would pin every epoch ever touched (≈ 4.5 MB per Conficker.C day).
var livePools struct {
	sync.Mutex
	m map[poolKey]weak.Pointer[Pool]
}

// poolsBuilt counts PoolFor materialisations made by any PoolCache.
var poolsBuilt atomic.Uint64

// livePool returns the live pool for key, building it when none is. The
// build runs under the map's lock: two caches asking for the same pool at
// once is the case the map exists for, and the second must wait for the
// first's pool rather than build its own.
func livePool(key poolKey, model PoolModel) *Pool {
	livePools.Lock()
	defer livePools.Unlock()
	if p := livePools.m[key].Value(); p != nil {
		return p
	}
	p := model.PoolFor(key.seed, key.epoch)
	poolsBuilt.Add(1)
	if livePools.m == nil {
		livePools.m = make(map[poolKey]weak.Pointer[Pool])
	}
	livePools.m[key] = weak.Make(p)
	runtime.AddCleanup(p, func(key poolKey) {
		livePools.Lock()
		defer livePools.Unlock()
		// A successor built after p died and before this ran keeps the entry.
		if wp, ok := livePools.m[key]; ok && wp.Value() == nil {
			delete(livePools.m, key)
		}
	}, key)
	return p
}

// PoolsLive reports how many shared pools are alive in the process.
func PoolsLive() int {
	livePools.Lock()
	defer livePools.Unlock()
	n := 0
	for _, wp := range livePools.m {
		if wp.Value() != nil {
			n++
		}
	}
	return n
}

// PoolsBuilt reports how many pools the process's caches have generated.
func PoolsBuilt() uint64 { return poolsBuilt.Load() }

// Pool metric families (see ExportPoolMetrics).
const (
	MetricPoolsLive  = "dga_pools_live"
	MetricPoolsBuilt = "dga_pools_built_total"
)

// ExportPoolMetrics puts the process-wide pool counts on reg: the live count
// as a gauge and the build count, which only grows, as a counter. Both are
// callbacks read at scrape time because the pools belong to the process, not
// to a registry.
func ExportPoolMetrics(reg *obs.Registry) {
	reg.Help(MetricPoolsLive, "Shared DGA pools alive in the process, one per (model, seed, epoch) some cache still holds.")
	reg.Help(MetricPoolsBuilt, "DGA pools generated since start; flat while live engines and refreshes share them.")
	reg.GaugeFunc(MetricPoolsLive, func() float64 { return float64(PoolsLive()) })
	reg.CounterFunc(MetricPoolsBuilt, PoolsBuilt)
}
