package core

import (
	"sync"
	"sync/atomic"

	"botmeter/internal/d3"
	"botmeter/internal/dga"
	"botmeter/internal/matcher"
)

// EpochMatchers builds and caches the per-epoch matchers of one target DGA
// (paper Figure 2, steps 2–4): the family's pool for the epoch, narrowed to
// what the D³ front end detected and widened by its collision names. It is
// safe for concurrent use, which lets the streaming engine's ingest shards
// share one instance — an epoch's matcher is built once per BotMeter or
// engine, not once per shard.
type EpochMatchers struct {
	detection *d3.Window
	pools     *dga.PoolCache

	// last is the matcher For returned last: records arrive in epoch runs,
	// so almost every call is one atomic load instead of the mutex.
	last atomic.Pointer[epochMatcher]

	mu      sync.Mutex
	byEpoch map[int]*matcher.Attribution
}

type epochMatcher struct {
	epoch int
	a     *matcher.Attribution
}

// NewEpochMatchers builds the matcher cache. A nil detection window means
// perfect pool knowledge. pools supplies the pools, so the matcher, the
// estimators and (when the caller shares it) the simulator reuse one pool
// object per epoch.
func NewEpochMatchers(detection *d3.Window, pools *dga.PoolCache) *EpochMatchers {
	return &EpochMatchers{
		detection: detection,
		pools:     pools,
		byEpoch:   make(map[int]*matcher.Attribution),
	}
}

// For returns the matcher for one epoch, building it on first use.
func (em *EpochMatchers) For(epoch int) *matcher.Attribution {
	if last := em.last.Load(); last != nil && last.epoch == epoch {
		return last.a
	}
	em.mu.Lock()
	defer em.mu.Unlock()
	if a, ok := em.byEpoch[epoch]; ok {
		em.last.Store(&epochMatcher{epoch, a})
		return a
	}
	pool := em.pools.For(epoch)
	var a *matcher.Attribution
	if em.detection != nil {
		rep := em.detection.Detect(epoch, pool)
		a = matcher.NewAttribution(pool, rep.DetectedPositions, rep.Collisions)
	} else {
		a = matcher.NewAttribution(pool, nil, nil)
	}
	em.byEpoch[epoch] = a
	em.last.Store(&epochMatcher{epoch, a})
	return a
}
