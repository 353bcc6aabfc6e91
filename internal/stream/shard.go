package stream

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/estimators"
	"botmeter/internal/matcher"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// shard owns the servers that hash to it: reorder buffer, watermark and
// per-(server, epoch) estimator state. All mutable state is guarded by mu
// so Snapshot/Stats can read consistently while the shard goroutine runs.
type shard struct {
	eng *Engine
	idx int
	ch  chan trace.ObservedRecord
	// ctl carries barrier requests (state export, quiesce) into the shard
	// goroutine, so they serialise with ingest instead of racing it.
	ctl chan *shardCtl

	mu  sync.Mutex
	buf reorderHeap
	seq uint64
	// watermark is the low-water mark: no record with T < watermark will
	// ever be emitted again. Monotone by construction.
	watermark sim.Time
	// maxT/minT span every ingested record (matched or not) — the source
	// of the derived analysis window, mirroring cmd/botmeter.
	maxT, minT sim.Time
	hasData    bool
	// maxEmittedEpoch is the highest epoch that has received an emission;
	// epochs below it are closed as soon as it advances.
	maxEmittedEpoch int
	// closedThrough is the highest epoch closeThroughLocked has walked the
	// servers for: no cell at or below it is open. Emission is
	// timestamp-monotone and a record behind the watermark is dropped before
	// it reaches the heap, so no such cell can open again and the walk runs
	// once per epoch roll-over instead of once per record. Derived state:
	// never serialized, importState starts it over.
	closedThrough int
	// expiry queues the open cells that hold candidates, by the time the
	// oldest one expires — what advanceOpenLocked pops instead of visiting
	// every cell. Derived state as well; importState rebuilds it.
	expiry expiryHeap

	// lastMatcher memoises the last epoch's matcher: records arrive in
	// near-epoch-order, so the common case skips EpochMatchers.For's mutex
	// on every ingest.
	lastMatcher      *matcher.Attribution
	lastMatcherEpoch int

	servers map[string]*serverState

	retained     int // records currently held: the reorder buffer's
	peakRetained int
	stats        Stats

	// wmGauge is the shard's exported watermark (nil-safe when metrics
	// are disabled).
	wmGauge *obs.Gauge
}

func newShard(e *Engine, idx int) *shard {
	s := &shard{
		eng:             e,
		idx:             idx,
		ch:              make(chan trace.ObservedRecord, e.cfg.ShardBuffer),
		ctl:             make(chan *shardCtl, 1),
		watermark:       math.MinInt64,
		maxT:            math.MinInt64,
		minT:            math.MaxInt64,
		maxEmittedEpoch: math.MinInt64,
		closedThrough:   math.MinInt64,
		servers:         make(map[string]*serverState),
	}
	if reg := e.cfg.Registry; reg != nil {
		s.wmGauge = reg.Gauge(MetricWatermark, "shard", fmt.Sprint(idx))
	}
	return s
}

// startMetrics exports the shard's callback gauges — watermark lag and
// reorder depth age between samples, so they are computed at scrape time
// instead of written on the ingest path. The registry keeps the first
// callback registered under a name, so this waits until the engine starts:
// an engine whose Restore failed must not leave its shards behind them, nor
// its records in the retained gauge.
func (s *shard) startMetrics() {
	e, idx := s.eng, s.idx
	e.m.retained.Add(float64(s.retained)) // what a restore put in the shard
	if reg := e.cfg.Registry; reg != nil {
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
				n += len(sv.open)
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
	if s.watermark == math.MinInt64 {
		return 0
	}
	lag := float64(now.UnixMilli()-int64(s.watermark)) / 1000
	if lag < 0 {
		return 0
	}
	return lag
}

// loop drains the shard channel until Close, servicing barrier requests
// between records.
func (s *shard) loop() {
	for {
		select {
		case rec, ok := <-s.ch:
			if !ok {
				return
			}
			s.mu.Lock()
			s.ingestLocked(rec)
			s.mu.Unlock()
		case req := <-s.ctl:
			s.handleCtl(req)
		}
	}
}

// shardCtl is one barrier request: export the shard's serializable state,
// or quiesce (force-drain the reorder buffer).
type shardCtl struct {
	quiesce bool
	state   ShardState
	done    chan struct{}
}

// handleCtl services one barrier request inside the shard goroutine. The
// requesting producer is paused inside the Engine barrier call, so the data
// channel drains to empty and stays empty: the cut is exactly the records
// delivered before the barrier. (With multiple concurrent producers the cut
// is still consistent — everything delivered is included — just not at a
// caller-chosen record count; exact cuts require the single-feeder pattern
// both daemons use.)
func (s *shard) handleCtl(req *shardCtl) {
drain:
	for {
		select {
		case rec, ok := <-s.ch:
			if !ok {
				break drain
			}
			s.mu.Lock()
			s.ingestLocked(rec)
			s.mu.Unlock()
		default:
			break drain
		}
	}
	s.mu.Lock()
	if req.quiesce {
		s.quiesceLocked()
	} else {
		req.state = s.exportLocked()
	}
	s.mu.Unlock()
	close(req.done)
}

// ingestLocked processes one record: span tracking, matching, reorder
// buffering, watermark advance, emission and epoch closing.
func (s *shard) ingestLocked(rec trace.ObservedRecord) {
	e := s.eng
	s.stats.Ingested++
	e.m.ingested.Inc()
	// minT/maxT track the span of EVERY ingested record (matched or not) —
	// the derived analysis window mirrors cmd/botmeter, which epoch-aligns
	// around the whole trace. The watermark, by contrast, only advances on
	// matched records (below), so unmatched stragglers cannot force late
	// drops of matched traffic.
	if !s.hasData {
		s.minT, s.maxT = rec.T, rec.T
		s.hasData = true
	} else {
		if rec.T < s.minT {
			s.minT = rec.T
		}
		if rec.T > s.maxT {
			s.maxT = rec.T
		}
	}

	// The one name→position lookup: from here on the record is its time,
	// its server and the pool position stamped on it.
	if !s.matcherLocked(int(rec.T / e.cfg.Core.EpochLen)).Attribute(&rec) {
		s.stats.Unmatched++
		e.m.unmatched.Inc()
		return
	}
	s.stats.Matched++
	e.m.matched.Inc()

	if s.watermark != math.MinInt64 && rec.T < s.watermark {
		s.stats.DroppedLate++
		e.m.late.Inc()
		return
	}
	s.buf.push(reorderEntry{t: rec.T, seq: s.seq, rec: rec})
	s.seq++
	s.retainInc(1)
	if wm := rec.T - e.cfg.ReorderWindow; wm > s.watermark {
		s.watermark = wm
	}

	// Overflow: force-emit the oldest buffered record, advancing the
	// watermark to it so ordering stays monotone (later arrivals older
	// than it become late drops).
	for s.buf.len() > e.cfg.MaxReorder {
		entry := s.buf.pop()
		s.retainInc(-1)
		if entry.t > s.watermark {
			s.watermark = entry.t
		}
		s.stats.ReorderEvictions++
		e.m.evictions.Inc()
		s.emitLocked(entry.rec)
	}
	// Normal drain: everything strictly below the watermark is safe to
	// emit (a new arrival at exactly the watermark is still accepted, so
	// equal-T entries must wait).
	for s.buf.len() > 0 && s.buf.min().t < s.watermark {
		entry := s.buf.pop()
		s.retainInc(-1)
		s.emitLocked(entry.rec)
	}
	// Watermark-driven epoch closing: epochs wholly below the watermark
	// can never receive another record, even for idle servers.
	if s.watermark != math.MinInt64 && s.watermark >= 0 {
		s.closeThroughLocked(int(s.watermark/e.cfg.Core.EpochLen) - 1)
		s.advanceOpenLocked(s.watermark)
	}
	if s.wmGauge != nil && s.watermark != math.MinInt64 {
		s.wmGauge.Set(float64(s.watermark))
	}
}

// matcherLocked returns the epoch's matcher, memoising the last one.
func (s *shard) matcherLocked(epoch int) *matcher.Attribution {
	if s.lastMatcher == nil || epoch != s.lastMatcherEpoch {
		s.lastMatcher = s.eng.matchers.For(epoch)
		s.lastMatcherEpoch = epoch
	}
	return s.lastMatcher
}

// emitLocked hands one matched record, in non-decreasing timestamp order,
// to its (server, epoch) cell.
func (s *shard) emitLocked(rec trace.ObservedRecord) {
	e := s.eng
	epoch := int(rec.T / e.cfg.Core.EpochLen)
	if epoch > s.maxEmittedEpoch {
		if s.maxEmittedEpoch != math.MinInt64 {
			s.closeThroughLocked(epoch - 1)
		}
		s.maxEmittedEpoch = epoch
	}
	sv, ok := s.servers[rec.Server]
	if !ok {
		sv = &serverState{
			domains:  make(map[string]struct{}),
			perEpoch: make(map[int]float64),
			open:     make(map[int]*epochCell),
		}
		if e.secondSrc != nil {
			sv.perEpochMT = make(map[int]float64)
		}
		s.servers[rec.Server] = sv
	}
	sv.matched++
	sv.addDomain(rec.Domain)
	cell, ok := sv.open[epoch]
	if !ok {
		cell = s.openCell(epoch)
		sv.open[epoch] = cell
	}
	cell.prim.Observe(rec)
	if cell.second != nil {
		cell.second.Observe(rec)
	}
	s.queueExpiryLocked(cell)
}

// openCell starts one (server, epoch) cell: the selected estimator's stream
// and, when enabled, the MT second opinion's.
func (s *shard) openCell(epoch int) *epochCell {
	e := s.eng
	cell := &epochCell{prim: e.estimator.OpenEpoch(epoch, e.estCfg)}
	cell.watch(cell.prim)
	if e.secondSrc != nil {
		cell.second = e.secondSrc.OpenEpoch(epoch, e.estCfg).(*estimators.TimingStream)
		cell.watch(cell.second)
	}
	return cell
}

// queueExpiryLocked puts a cell that holds candidates, and is not queued
// already, on the expiry heap.
func (s *shard) queueExpiryLocked(cell *epochCell) {
	if cell.queued {
		return
	}
	if due, ok := cell.nextExpiry(); ok {
		cell.queued = true
		s.expiry.push(expiryEntry{due: due, cell: cell})
	}
}

// closeThroughLocked finalises every open epoch ≤ ep across the shard's
// servers: each cell's streams report their final estimate and the cell is
// freed. Only the first call for a given ep walks the servers (see
// closedThrough).
func (s *shard) closeThroughLocked(ep int) {
	if ep <= s.closedThrough {
		return
	}
	s.closedThrough = ep
	for _, sv := range s.servers {
		for e := range sv.open {
			if e <= ep {
				s.closeCellLocked(sv, e)
			}
		}
	}
}

// closeCellLocked finalises one (server, epoch) cell.
func (s *shard) closeCellLocked(sv *serverState, epoch int) {
	cell := sv.open[epoch]
	if cell == nil {
		return
	}
	// The latency histogram is nil when metrics are off; guard the clock
	// reads so disabled deployments (and the ns/record benchmarks) pay only
	// the branch.
	var t0 time.Time
	if s.eng.m.epochClose != nil {
		t0 = s.eng.cfg.Clock()
	}
	sv.perEpoch[epoch] = cell.prim.Estimate()
	if s.eng.m.epochClose != nil {
		s.eng.m.epochClose.Observe(s.eng.cfg.Clock().Sub(t0).Seconds())
	}
	if cell.second != nil {
		sv.perEpochMT[epoch] = cell.second.Estimate()
	}
	// Pooled-state streams (MB's pair set) recycle their scratch now that
	// the cell can never be estimated again.
	if r, ok := cell.prim.(estimators.Releasable); ok {
		r.Release()
	}
	if cell.second != nil {
		cell.second.Release()
	}
	cell.closed = true
	delete(sv.open, epoch)
	s.stats.EpochsClosed++
	s.eng.m.epochs.Inc()
}

// advanceOpenLocked lets the streams that hold candidates expire them up to
// the watermark (bounded memory for idle-but-open epochs). It visits the
// cells whose oldest candidate is due and no others. A cell's own Observe
// may have expired that candidate already — its due time then reads early,
// never late — in which case the visit finds nothing and re-queues the cell
// at its real time. So after the call no open cell holds a candidate with
// first + maxDuration ≤ watermark: what a walk over every cell leaves.
func (s *shard) advanceOpenLocked(watermark sim.Time) {
	for len(s.expiry) > 0 && s.expiry[0].due <= watermark {
		cell := s.expiry.pop().cell
		cell.queued = false
		if cell.closed {
			continue
		}
		for _, st := range cell.expiring {
			st.Advance(watermark)
		}
		s.queueExpiryLocked(cell)
	}
}

// flushLocked drains the reorder buffer entirely and closes every open
// epoch — the end-of-stream path of Close.
func (s *shard) flushLocked() {
	for s.buf.len() > 0 {
		entry := s.buf.pop()
		s.retainInc(-1)
		if entry.t > s.watermark {
			s.watermark = entry.t
		}
		s.emitLocked(entry.rec)
	}
	s.closeThroughLocked(math.MaxInt64)
	s.expiry = nil // every queued cell has just closed
}

// quiesceLocked force-emits every buffered record in timestamp order,
// advancing the watermark to the newest emitted record, then applies the
// normal watermark-driven epoch closing. Unlike flushLocked it leaves the
// current epochs open, so the shard keeps accepting live traffic — but any
// later arrival older than the new watermark becomes a late drop, which is
// why Engine.Quiesce documents the "no older record can still arrive"
// precondition.
func (s *shard) quiesceLocked() {
	e := s.eng
	for s.buf.len() > 0 {
		entry := s.buf.pop()
		s.retainInc(-1)
		if entry.t > s.watermark {
			s.watermark = entry.t
		}
		s.emitLocked(entry.rec)
	}
	if s.watermark != math.MinInt64 && s.watermark >= 0 {
		s.closeThroughLocked(int(s.watermark/e.cfg.Core.EpochLen) - 1)
		s.advanceOpenLocked(s.watermark)
	}
	if s.wmGauge != nil && s.watermark != math.MinInt64 {
		s.wmGauge.Set(float64(s.watermark))
	}
}

// retainInc adjusts the retained-record gauge and its peak.
func (s *shard) retainInc(d int) {
	s.retained += d
	if s.retained > s.peakRetained {
		s.peakRetained = s.retained
	}
	s.eng.m.retained.Add(float64(d))
}

// estimateServer assembles one server's ServerEstimate over the epoch
// range [first, last], exactly as core.Analyze does: closed epochs use
// their finalised value, open epochs a provisional estimate, and an epoch
// without a record is 0 (estimators.EstimateEpoch of nothing).
func (s *shard) estimateServer(name string, sv *serverState, first, last int) core.ServerEstimate {
	est := core.ServerEstimate{
		Server:          name,
		MatchedLookups:  sv.matched,
		DistinctDomains: len(sv.domains),
	}
	var total, totalMT float64
	epochs := 0
	for ep := first; ep <= last; ep++ {
		v, closed := sv.perEpoch[ep]
		totalMT += sv.perEpochMT[ep]
		if cell := sv.open[ep]; cell != nil && !closed {
			v = cell.prim.Estimate()
			if cell.second != nil {
				totalMT += cell.second.Estimate()
			}
		}
		est.PerEpoch = append(est.PerEpoch, v)
		total += v
		epochs++
	}
	if epochs > 0 {
		est.Population = total / float64(epochs)
		if s.eng.secondSrc != nil {
			est.SecondOpinion = totalMT / float64(epochs)
		}
	}
	return est
}

// serverState is one forwarding server's accumulated landscape state.
type serverState struct {
	matched int
	// domains is the distinct-domain set. sorted holds, ascending, the
	// members the last export saw and fresh the ones added since, so an
	// export sorts what is new and merges instead of sorting the set.
	domains    map[string]struct{}
	sorted     []string
	fresh      []string
	perEpoch   map[int]float64 // closed epochs → finalised estimate
	perEpochMT map[int]float64 // closed epochs → MT second opinion
	open       map[int]*epochCell
}

func (sv *serverState) addDomain(d string) {
	n := len(sv.domains)
	sv.domains[d] = struct{}{}
	if len(sv.domains) > n {
		sv.fresh = append(sv.fresh, d)
	}
}

// sortedDomains returns the distinct domains ascending, in a slice of the
// caller's own: sort the additions, merge them into sorted from the back,
// copy out.
func (sv *serverState) sortedDomains() []string {
	if len(sv.fresh) > 0 {
		sort.Strings(sv.fresh)
		i, j := len(sv.sorted)-1, len(sv.fresh)-1
		sv.sorted = append(sv.sorted, sv.fresh...)
		for k := len(sv.sorted) - 1; j >= 0; k-- {
			if i >= 0 && sv.sorted[i] > sv.fresh[j] {
				sv.sorted[k] = sv.sorted[i]
				i--
			} else {
				sv.sorted[k] = sv.fresh[j]
				j--
			}
		}
		sv.fresh = nil
	}
	if len(sv.sorted) == 0 {
		return nil
	}
	return append([]string(nil), sv.sorted...)
}

// epochCell is one open (server, epoch): the selected estimator's stream,
// fed record by record.
type epochCell struct {
	prim   estimators.EpochStream
	second *estimators.TimingStream // the MT second opinion, when enabled
	// expiring lists those of prim and second that hold state a watermark
	// retires; queued says the cell sits on its shard's expiry heap, closed
	// that the entry, when it comes up, is to be dropped.
	expiring []estimators.Expiring
	queued   bool
	closed   bool
}

// watch notes a stream just opened for the cell if it is one that expires.
func (c *epochCell) watch(es estimators.EpochStream) {
	if x, ok := es.(estimators.Expiring); ok {
		c.expiring = append(c.expiring, x)
	}
}

// nextExpiry is the earliest time one of the cell's streams has something
// to expire.
func (c *epochCell) nextExpiry() (due sim.Time, ok bool) {
	for _, st := range c.expiring {
		if t, has := st.NextExpiry(); has && (!ok || t < due) {
			due, ok = t, true
		}
	}
	return due, ok
}

// expiryEntry queues one cell at the time its oldest candidate expires.
type expiryEntry struct {
	due  sim.Time
	cell *epochCell
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
	a[last] = expiryEntry{} // release the cell
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

// reorderEntry orders buffered records by (timestamp, arrival sequence) so
// equal timestamps keep arrival order — the stability that makes in-order
// input reproduce batch MT exactly.
type reorderEntry struct {
	t   sim.Time
	seq uint64
	rec trace.ObservedRecord
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
	h.entries[last] = reorderEntry{} // release the record string refs
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
