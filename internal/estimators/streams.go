package estimators

import (
	"fmt"

	"botmeter/internal/matcher"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// This file holds the epoch streams of MP, NC, MB and MB-C (DESIGN.md §17):
// their sufficient statistics — visible-activation clusters for MP/NC, the
// distinct (TTL-bucket, pool-position) set for MB/MB-C — are folded in on
// ingest, so closing a cell is O(1) for MP/NC and O(changed positions) for
// MB.

// clusterStream folds a non-decreasing timestamp stream into visible
// activation clusters (see mergeWindowFor). Clustering decisions depend only
// on timestamps, never on tie order, so any time-ordered feed of the same
// records builds the same clusters.
type clusterStream struct {
	mergeWindow sim.Time
	done        []cluster
	cur         cluster
	started     bool
}

// Observe implements EpochStream.
func (cs *clusterStream) Observe(rec trace.ObservedRecord) {
	t := rec.T
	if !cs.started {
		cs.cur = cluster{start: t, end: t, count: 1}
		cs.started = true
		return
	}
	if t-cs.cur.start <= cs.mergeWindow {
		cs.cur.end = t
		cs.cur.count++
		return
	}
	cs.done = append(cs.done, cs.cur)
	cs.cur = cluster{start: t, end: t, count: 1}
}

// at returns the i-th live cluster in time order: the closed ones, then the
// open one.
func (cs *clusterStream) at(i int) cluster {
	if i < len(cs.done) {
		return cs.done[i]
	}
	return cs.cur
}

func (cs *clusterStream) count() int {
	n := len(cs.done)
	if cs.started {
		n++
	}
	return n
}

// ClusterState is one serialized activation cluster.
type ClusterState struct {
	Start sim.Time
	End   sim.Time
	Count int
}

// ClusterStreamState is the serializable state of an incremental MP/NC
// epoch: the closed clusters in time order plus the still-open one.
type ClusterStreamState struct {
	Done []ClusterState
	Cur  *ClusterState
}

// ExportState implements EpochStream.
func (cs *clusterStream) ExportState(*matcher.Attribution) EpochState {
	st := &ClusterStreamState{}
	if len(cs.done) > 0 {
		st.Done = make([]ClusterState, len(cs.done))
		for i, c := range cs.done {
			st.Done[i] = ClusterState{Start: c.start, End: c.end, Count: c.count}
		}
	}
	if cs.started {
		st.Cur = &ClusterState{Start: cs.cur.start, End: cs.cur.end, Count: cs.cur.count}
	}
	return EpochState{Clusters: st}
}

// RestoreState implements EpochStream.
func (cs *clusterStream) RestoreState(es EpochState, _ *matcher.Attribution) error {
	st := es.Clusters
	if st == nil {
		return fmt.Errorf("missing cluster state")
	}
	cs.done = cs.done[:0]
	for _, c := range st.Done {
		cs.done = append(cs.done, cluster{start: c.Start, end: c.End, count: c.Count})
	}
	if st.Cur != nil {
		cs.cur = cluster{start: st.Cur.Start, end: st.Cur.End, count: st.Cur.Count}
		cs.started = true
	} else {
		cs.cur = cluster{}
		cs.started = false
	}
	return nil
}

// PoissonStream is MP's per-(server, epoch) incremental state: clusters
// accumulate on ingest, and epoch close is one pass of Equation 1 over
// them — cost proportional to the visible activations, independent of the
// record count or pool size.
type PoissonStream struct {
	clusterStream
	windowStart sim.Time
	deltaL      sim.Time
	epochLen    sim.Time
}

// OpenEpoch implements Estimator.
func (*Poisson) OpenEpoch(epoch int, cfg Config) EpochStream {
	if !cfg.normalized {
		cfg = cfg.withDefaults()
	}
	return &PoissonStream{
		clusterStream: clusterStream{mergeWindow: mergeWindowFor(cfg)},
		windowStart:   sim.Time(epoch) * cfg.EpochLen,
		deltaL:        cfg.NegativeTTL,
		epochLen:      cfg.EpochLen,
	}
}

// Estimate implements EpochStream: Equation 1 over the live clusters.
func (s *PoissonStream) Estimate() float64 {
	return poissonEquation1(&s.clusterStream, s.windowStart, s.deltaL, s.epochLen)
}

// NaiveStream is NC's incremental state: the visible-cluster count.
type NaiveStream struct {
	clusterStream
}

// OpenEpoch implements Estimator.
func (*Naive) OpenEpoch(_ int, cfg Config) EpochStream {
	if !cfg.normalized {
		cfg = cfg.withDefaults()
	}
	return &NaiveStream{clusterStream{mergeWindow: mergeWindowFor(cfg)}}
}

// Estimate implements EpochStream.
func (s *NaiveStream) Estimate() float64 { return float64(s.count()) }

// BernoulliStream is MB's per-(server, epoch) incremental state: the
// distinct (TTL-bucket, pool-position) pair set, updated in O(1) per
// record on ingest. Epoch close sorts the pair log and runs the segment
// pipeline over it — O(changed positions), not O(pool).
type BernoulliStream struct {
	mb    *Bernoulli
	epoch int
	pairFold
}

// OpenEpoch implements Estimator.
func (mb *Bernoulli) OpenEpoch(epoch int, cfg Config) EpochStream {
	if !cfg.normalized {
		cfg = cfg.withDefaults()
	}
	return &BernoulliStream{
		mb:       mb,
		epoch:    epoch,
		pairFold: newPairFold(cfg.Pools.For(epoch), epoch, cfg, !mb.DisableTTLPartition),
	}
}

// Estimate implements EpochStream: the segment pipeline over the sorted
// pair log. Sorting in place is safe — the set's semantics are
// order-free — so provisional mid-epoch estimates and the final close run
// the identical code path.
func (s *BernoulliStream) Estimate() float64 {
	if s.ps.len() == 0 {
		return 0
	}
	view, thetaQ := s.mb.viewFor(s.pool, s.epoch, s.cfg)
	if view.size() == 0 {
		return 0
	}
	return s.mb.estimatePairs(view, s.ps.sorted(), thetaQ)
}

// CoverageStream is MB-C's per-(server, epoch) state: MB's pair set, read by
// bucket size instead of by segment.
type CoverageStream struct {
	pairFold
}

// OpenEpoch implements Estimator.
func (*Coverage) OpenEpoch(epoch int, cfg Config) EpochStream {
	if !cfg.normalized {
		cfg = cfg.withDefaults()
	}
	return &CoverageStream{newPairFold(cfg.Pools.For(epoch), epoch, cfg, true)}
}

// Estimate implements EpochStream: the coverage inversion at each TTL
// bucket's distinct-position count, summed. Only the counts matter; the
// sorted pair log walks as contiguous bucket groups.
func (s *CoverageStream) Estimate() float64 {
	if s.ps.len() == 0 {
		return 0
	}
	probs := coverProbabilities(s.pool, s.cfg.Spec)
	if len(probs) == 0 {
		return 0
	}
	var total float64
	pairs := s.ps.sorted()
	for i := 0; i < len(pairs); {
		b := pairBucket(pairs[i])
		j := i
		for j < len(pairs) && pairBucket(pairs[j]) == b {
			j++
		}
		total += invertCoverage(probs, float64(j-i))
		i = j
	}
	return total
}

// Release implements Releasable: called when the epoch cell closes for good,
// it returns the pair set to the pool.
func (f *pairFold) Release() {
	putPairSet(f.ps)
	f.ps = getPairSetReleased()
}

// getPairSetReleased returns a fresh empty set so a (buggy) post-Release
// Observe cannot corrupt pooled state; it is intentionally not pooled.
func getPairSetReleased() *pairSet {
	ps := new(pairSet)
	ps.reset()
	return ps
}

// BernoulliBucket is one TTL sub-window's distinct observed pool positions,
// ascending.
type BernoulliBucket struct {
	Bucket    int
	Positions []int
}

// BernoulliState is the serializable state of an MB or MB-C epoch. Pool
// positions are a function of (family, seed, epoch), which makes the state
// stable across processes; buckets and positions are sorted so identical
// state always serialises to identical bytes.
type BernoulliState struct {
	Buckets []BernoulliBucket
}

// ExportState implements EpochStream: the sorted pair log re-grouped per
// bucket.
func (f *pairFold) ExportState(*matcher.Attribution) EpochState {
	st := &BernoulliState{}
	pairs := f.ps.sorted()
	for i := 0; i < len(pairs); {
		b := pairBucket(pairs[i])
		j := i
		for j < len(pairs) && pairBucket(pairs[j]) == b {
			j++
		}
		bucket := BernoulliBucket{Bucket: b, Positions: make([]int, 0, j-i)}
		for ; i < j; i++ {
			bucket.Positions = append(bucket.Positions, pairPos(pairs[i]))
		}
		st.Buckets = append(st.Buckets, bucket)
	}
	return EpochState{Bernoulli: st}
}

// RestoreState implements EpochStream: it replaces the pair set with a
// previously exported one.
func (f *pairFold) RestoreState(es EpochState, _ *matcher.Attribution) error {
	if es.Bernoulli == nil {
		return fmt.Errorf("missing Bernoulli state")
	}
	f.ps.reset()
	for _, bucket := range es.Bernoulli.Buckets {
		for _, pos := range bucket.Positions {
			f.ps.add(bucket.Bucket, pos)
		}
	}
	return nil
}
