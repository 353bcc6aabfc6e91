package stream

import (
	"fmt"
	"math"
	"sync"
	"time"

	"botmeter/internal/estimators"
	"botmeter/internal/matcher"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// shard owns the servers that hash to it: its reorder buffer, watermark and
// expiry queue stand in front of one estimators.Walk per server — the walk
// core.Analyze runs. All mutable state is guarded by mu so Snapshot/Stats
// can read consistently while the shard goroutine runs.
type shard struct {
	eng *Engine
	idx int
	// in queues the records Observe delivers and the barrier requests
	// (state export, quiesce) between them, so a request serialises with
	// ingest instead of racing it.
	in inbox

	mu sync.Mutex
	// ShardState is the header an export copies out whole: sequence
	// counter, watermark, time span, tallies. Its Buffer and Servers stay
	// nil: buf and servers hold the records and the servers.
	ShardState
	buf reorderHeap
	// closedThrough is the highest epoch closeThroughLocked has walked the
	// servers for: no cell at or below it is open. Emission is
	// timestamp-monotone and a record behind the watermark is dropped before
	// it reaches the heap, so no such cell can open again and the walk runs
	// once per epoch roll-over instead of once per record. Derived state:
	// never serialized, importState starts it over.
	closedThrough int
	// expiry queues the servers whose open cells hold candidates, by the
	// time the oldest one expires — what advanceOpenLocked pops instead of
	// visiting every server. Derived state as well; importState rebuilds it.
	expiry expiryHeap

	servers map[string]*serverState

	retained int // records currently held: the reorder buffer's
}

func newShard(e *Engine, idx int) *shard {
	s := &shard{
		eng:           e,
		idx:           idx,
		ShardState:    emptyShardState(),
		closedThrough: math.MinInt64,
		servers:       make(map[string]*serverState),
	}
	s.in.init(e.cfg.ShardBuffer)
	return s
}

// startMetrics exports the shard's gauges. Each is a callback over state
// the shard keeps under its mutex, computed at scrape time instead of
// written on the ingest path. The registry keeps the first callback
// registered under a name, so this waits until the engine starts: an engine
// whose Restore failed must not leave its shards behind them.
func (s *shard) startMetrics() {
	e, idx := s.eng, s.idx
	if reg := e.cfg.Registry; reg != nil {
		reg.GaugeFunc(MetricWatermark, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.Watermark == math.MinInt64 {
				return 0
			}
			return float64(s.Watermark)
		}, "shard", fmt.Sprint(idx))
		reg.GaugeFunc(MetricWatermarkLag, func() float64 {
			now := e.cfg.Clock()
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.lagSecondsLocked(now)
		}, "shard", fmt.Sprint(idx))
		reg.GaugeFunc(MetricReorderDepth, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.buf.len())
		}, "shard", fmt.Sprint(idx))
		// The ingest path no longer visits this state record by record, so
		// it is counted here, when somebody asks.
		reg.GaugeFunc(MetricOpenCells, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, sv := range s.servers {
				n += sv.walk.Open()
			}
			return float64(n)
		}, "shard", fmt.Sprint(idx))
		reg.GaugeFunc(MetricExpiryQueue, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.expiry))
		}, "shard", fmt.Sprint(idx))
	}
}

// lagSecondsLocked is the wall-clock staleness of the shard's watermark:
// now − watermark in seconds, clamped at 0 (a watermark ahead of the
// clock, as in virtual-time replays, reads as fresh). 0 while no
// watermark has been emitted.
func (s *shard) lagSecondsLocked(now time.Time) float64 {
	if s.Watermark == math.MinInt64 {
		return 0
	}
	lag := float64(now.UnixMilli()-int64(s.Watermark)) / 1000
	if lag < 0 {
		return 0
	}
	return lag
}

// loop takes the inbox a batch at a time until it is closed and empty,
// attributes the batch's records, and ingests the batch under one hold of
// the shard mutex: the records in delivery order, each barrier request
// served at its queue position. The batch it is done with goes back to the
// inbox as the next spare, so the steady state allocates nothing.
func (s *shard) loop() {
	var b inboxBatch
	for {
		var ok bool
		if b, ok = s.in.take(b); !ok {
			return
		}
		s.attribute(b.recs)
		s.mu.Lock()
		i := 0
		for _, c := range b.ctls {
			for ; i < c.at; i++ {
				s.ingestLocked(&b.recs[i])
			}
			s.serveLocked(c.req)
		}
		for ; i < len(b.recs); i++ {
			s.ingestLocked(&b.recs[i])
		}
		s.mu.Unlock()
		clear(b.recs) // release the names
		clear(b.ctls)
	}
}

// attribute is the one name→position lookup of the engine: it sets Pos on
// every record of a batch to the record's position in its epoch's pool, or
// to -1 when the DGA is not charged with it. From here on a record is its
// time, its server and that position. It runs in one pass over the batch,
// outside the shard mutex, so the cache misses of consecutive lookups
// overlap instead of sitting between heap and walk work, and a matcher
// built for an epoch's first record is not built under the mutex. The
// epoch's matcher is looked up once per run of same-epoch records.
// Attribution is pure, so where the batch's barrier requests fall does not
// matter.
func (s *shard) attribute(recs []trace.ObservedRecord) {
	bm, epochLen := s.eng.bm, s.eng.cfg.Core.EpochLen
	var a *matcher.Attribution
	epoch := 0
	for i := range recs {
		rec := &recs[i]
		if ep := int(rec.T / epochLen); a == nil || ep != epoch {
			a, epoch = bm.Matcher(ep), ep
		}
		pos, ok := a.Resolve(*rec)
		if !ok {
			pos = -1
		}
		rec.Pos = pos
	}
}

// shardCtl is one barrier request: export the shard's serializable state,
// or quiesce (force-drain the reorder buffer).
type shardCtl struct {
	quiesce bool
	state   ShardState
	done    chan struct{}
}

// serveLocked serves one barrier request inside the shard goroutine. The
// request is served at its queue position, so the cut is exactly the
// records delivered to the shard before the request was queued — from a
// single feeder, the records fed before the Engine barrier call. (With
// several producers at once the cut is still consistent — everything
// delivered before the request is in it, nothing after — but which
// concurrent records those are is up to the scheduler.)
func (s *shard) serveLocked(req *shardCtl) {
	if req.quiesce {
		s.quiesceLocked()
	} else {
		req.state = s.exportLocked()
	}
	close(req.done)
}

// inbox is a shard's bounded queue. Producers append under mu; the shard
// goroutine swaps the pending batch for its emptied spare (double
// buffering) and ingests the batch it took while producers fill the other.
type inbox struct {
	mu    sync.Mutex
	ready sync.Cond // the shard goroutine waits here for work
	space sync.Cond // producers wait here while limit records are pending
	// limit is Config.ShardBuffer: how many records may wait.
	limit   int
	closed  bool
	pending inboxBatch
}

// inboxBatch is what the shard takes at once: records in delivery order,
// and the barrier requests queued among them, each at the number of
// records queued before it.
type inboxBatch struct {
	recs []trace.ObservedRecord
	ctls []queuedCtl
}

type queuedCtl struct {
	at  int
	req *shardCtl
}

func (b *inboxBatch) empty() bool { return len(b.recs) == 0 && len(b.ctls) == 0 }

func (in *inbox) init(limit int) {
	in.limit = limit
	in.ready.L = &in.mu
	in.space.L = &in.mu
}

// put queues one record, waiting while limit records are pending
// (backpressure). It reports false, queuing nothing, once the inbox is
// closed. Only a record that finds the inbox empty wakes the shard, and
// after the unlock, so the shard does not wake into a held mutex (a
// waiting shard is on the Cond's list before it unlocks, so the signal
// cannot be missed).
func (in *inbox) put(rec trace.ObservedRecord) bool {
	in.mu.Lock()
	for len(in.pending.recs) >= in.limit && !in.closed {
		in.space.Wait()
	}
	if in.closed {
		in.mu.Unlock()
		return false
	}
	wake := in.pending.empty()
	in.pending.recs = append(in.pending.recs, rec)
	in.mu.Unlock()
	if wake {
		in.ready.Signal()
	}
	return true
}

// request queues a barrier request behind the records pending now, without
// waiting for room, and wakes the shard as put does. The inbox must be
// open: Engine.barrier holds the lock Close and Kill take before they close
// it.
func (in *inbox) request(req *shardCtl) {
	in.mu.Lock()
	wake := in.pending.empty()
	in.pending.ctls = append(in.pending.ctls, queuedCtl{at: len(in.pending.recs), req: req})
	in.mu.Unlock()
	if wake {
		in.ready.Signal()
	}
}

// take waits for work and returns the pending batch, leaving spare,
// emptied, in its place. It reports false once the inbox is closed and
// everything queued before the close has been taken.
func (in *inbox) take(spare inboxBatch) (inboxBatch, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for in.pending.empty() {
		if in.closed {
			return spare, false
		}
		in.ready.Wait()
	}
	b := in.pending
	if len(b.recs) >= in.limit {
		in.space.Broadcast()
	}
	in.pending = inboxBatch{recs: spare.recs[:0], ctls: spare.ctls[:0]}
	return b, true
}

// close refuses further records and requests, wakes the producers waiting
// for room (they fail) and lets the shard goroutine take what is queued,
// then exit.
func (in *inbox) close() {
	in.mu.Lock()
	in.closed = true
	in.ready.Signal()
	in.space.Broadcast()
	in.mu.Unlock()
}

// ingestLocked processes one record attribute has resolved: span tracking,
// the match tally, reorder buffering, watermark advance, emission and epoch
// closing.
func (s *shard) ingestLocked(rec *trace.ObservedRecord) {
	e := s.eng
	s.Stats.Ingested++
	// MinT/MaxT track the span of EVERY ingested record (matched or not) —
	// the derived analysis window mirrors cmd/botmeter, which epoch-aligns
	// around the whole trace. The watermark, by contrast, only advances on
	// matched records (below), so unmatched stragglers cannot force late
	// drops of matched traffic.
	if !s.HasData {
		s.MinT, s.MaxT = rec.T, rec.T
		s.HasData = true
	} else {
		if rec.T < s.MinT {
			s.MinT = rec.T
		}
		if rec.T > s.MaxT {
			s.MaxT = rec.T
		}
	}

	if rec.Pos < 0 {
		s.Stats.Unmatched++
		return
	}
	s.Stats.Matched++

	if s.Watermark != math.MinInt64 && rec.T < s.Watermark {
		s.Stats.DroppedLate++
		return
	}
	s.buf.push(reorderEntry{t: rec.T, seq: s.Seq, server: rec.Server, pos: rec.Pos})
	s.Seq++
	s.retainInc(1)
	if wm := rec.T - e.cfg.ReorderWindow; wm > s.Watermark {
		s.Watermark = wm
	}

	// Overflow: force-emit the oldest buffered record, advancing the
	// watermark to it so ordering stays monotone (later arrivals older
	// than it become late drops).
	for s.buf.len() > e.cfg.MaxReorder {
		s.Stats.ReorderEvictions++
		s.emitOldestLocked()
	}
	// Normal drain: everything strictly below the watermark is safe to
	// emit (a new arrival at exactly the watermark is still accepted, so
	// equal-T entries must wait).
	for s.buf.len() > 0 && s.buf.min().t < s.Watermark {
		s.emitOldestLocked()
	}
	s.settleLocked()
}

// emitOldestLocked pops the oldest buffered record, raises the watermark to
// it when it is newer, and emits it: the one drain step of ingest, quiesce
// and flush.
func (s *shard) emitOldestLocked() {
	entry := s.buf.pop()
	s.retainInc(-1)
	if entry.t > s.Watermark {
		s.Watermark = entry.t
	}
	s.emitLocked(entry)
}

// settleLocked applies the watermark: epochs wholly below it can never
// receive another record, even for idle servers, so they close, and open
// cells expire candidates up to it.
func (s *shard) settleLocked() {
	if s.Watermark >= 0 {
		s.closeThroughLocked(int(s.Watermark/s.eng.cfg.Core.EpochLen) - 1)
		s.advanceOpenLocked(s.Watermark)
	}
}

// emitLocked hands one matched record, in non-decreasing timestamp order,
// to its server's walk.
func (s *shard) emitLocked(en reorderEntry) {
	e := s.eng
	epoch := int(en.t / e.cfg.Core.EpochLen)
	if epoch > s.MaxEmittedEpoch {
		if s.MaxEmittedEpoch != math.MinInt64 {
			s.closeThroughLocked(epoch - 1)
		}
		s.MaxEmittedEpoch = epoch
	}
	sv, ok := s.servers[en.server]
	if !ok {
		sv = s.newServer()
		s.servers[en.server] = sv
	}
	sv.matched++
	s.Stats.EpochsClosed += uint64(sv.walk.Observe(trace.ObservedRecord{T: en.t, Pos: en.pos}))
	s.queueExpiryLocked(sv)
}

func (s *shard) newServer() *serverState {
	return &serverState{walk: s.eng.bm.NewWalk(nil)}
}

// queueExpiryLocked puts a server whose open cells hold candidates, and
// that is not queued already, on the expiry heap.
func (s *shard) queueExpiryLocked(sv *serverState) {
	if sv.queued {
		return
	}
	if due, ok := sv.walk.NextExpiry(); ok {
		sv.queued = true
		s.expiry.push(expiryEntry{due: due, sv: sv})
	}
}

// closeThroughLocked finalises every open epoch ≤ ep across the shard's
// servers. Only the first call for a given ep walks the servers (see
// closedThrough).
func (s *shard) closeThroughLocked(ep int) {
	if ep <= s.closedThrough {
		return
	}
	s.closedThrough = ep
	e := s.eng
	for _, sv := range s.servers {
		if sv.walk.Open() == 0 {
			continue
		}
		// The latency histogram is nil when metrics are off; guard the clock
		// reads so disabled deployments (and the ns/record benchmarks) pay
		// only the branch.
		var t0 time.Time
		if e.m.epochClose != nil {
			t0 = e.cfg.Clock()
		}
		n := sv.walk.CloseThrough(ep)
		if n > 0 && e.m.epochClose != nil {
			per := e.cfg.Clock().Sub(t0).Seconds() / float64(n)
			for range n {
				e.m.epochClose.Observe(per)
			}
		}
		s.Stats.EpochsClosed += uint64(n)
	}
}

// advanceOpenLocked lets the streams that hold candidates expire them up to
// the watermark (bounded memory for idle-but-open epochs), visiting only the
// servers whose oldest candidate is due. A queued time may read early (the
// walk's own Observe expired that candidate, or its cell closed; a later
// candidate never starts earlier), never late: the visit then finds nothing
// and re-queues the server. So afterwards no open cell holds a candidate
// with first + maxDuration ≤ watermark: what a walk over every cell leaves.
func (s *shard) advanceOpenLocked(watermark sim.Time) {
	for len(s.expiry) > 0 && s.expiry[0].due <= watermark {
		sv := s.expiry.pop().sv
		sv.queued = false
		sv.walk.Advance(watermark)
		s.queueExpiryLocked(sv)
	}
}

// flushLocked drains the reorder buffer entirely and closes every open
// epoch — the end-of-stream path of Close.
func (s *shard) flushLocked() {
	for s.buf.len() > 0 {
		s.emitOldestLocked()
	}
	s.closeThroughLocked(math.MaxInt64)
	s.expiry = nil // every cell has just closed
}

// quiesceLocked force-emits every buffered record in timestamp order,
// advancing the watermark to the newest emitted record, then applies the
// normal watermark-driven epoch closing. Unlike flushLocked it leaves the
// current epochs open, so the shard keeps accepting live traffic — but any
// later arrival older than the new watermark becomes a late drop, which is
// why Engine.Quiesce documents the "no older record can still arrive"
// precondition.
func (s *shard) quiesceLocked() {
	for s.buf.len() > 0 {
		s.emitOldestLocked()
	}
	s.settleLocked()
}

// retainInc adjusts the retained-record count and its peak.
func (s *shard) retainInc(d int) {
	s.retained += d
	if s.retained > s.PeakRetained {
		s.PeakRetained = s.retained
	}
}

// serverState is one forwarding server's accumulated landscape state: its
// walk and the tallies the landscape reports beside it.
type serverState struct {
	matched int
	walk    *estimators.Walk
	// queued says the server sits on its shard's expiry heap.
	queued bool
}

// expiryEntry queues one server at the time its oldest candidate expires.
type expiryEntry struct {
	due sim.Time
	sv  *serverState
}

// expiryHeap is a binary min-heap by due time, value-based like reorderHeap.
type expiryHeap []expiryEntry

func (h *expiryHeap) push(e expiryEntry) {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if a[parent].due <= a[i].due {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *expiryHeap) pop() expiryEntry {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a[last] = expiryEntry{} // release the server
	a = a[:last]
	*h = a
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(a) && a[l].due < a[smallest].due {
			smallest = l
		}
		if r < len(a) && a[r].due < a[smallest].due {
			smallest = r
		}
		if smallest == i {
			return top
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
}

// reorderEntry is one buffered record: its time, server and pool position,
// ordered by (timestamp, arrival sequence) so equal timestamps keep arrival
// order — the stability that makes in-order input reproduce batch MT
// exactly. It holds no name: an export names the position through the
// epoch's matcher.
type reorderEntry struct {
	t      sim.Time
	seq    uint64
	server string
	pos    int32
}

func (a reorderEntry) less(b reorderEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// reorderHeap is a value-based binary min-heap (no container/heap boxing —
// same idiom as internal/sim's event queue).
type reorderHeap struct {
	entries []reorderEntry
}

func (h *reorderHeap) len() int { return len(h.entries) }

func (h *reorderHeap) min() reorderEntry { return h.entries[0] }

func (h *reorderHeap) push(e reorderEntry) {
	h.entries = append(h.entries, e)
	i := len(h.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.entries[i].less(h.entries[parent]) {
			break
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

func (h *reorderHeap) pop() reorderEntry {
	top := h.entries[0]
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries[last] = reorderEntry{} // release the server name
	h.entries = h.entries[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.entries) && h.entries[l].less(h.entries[smallest]) {
			smallest = l
		}
		if r < len(h.entries) && h.entries[r].less(h.entries[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.entries[i], h.entries[smallest] = h.entries[smallest], h.entries[i]
		i = smallest
	}
}
