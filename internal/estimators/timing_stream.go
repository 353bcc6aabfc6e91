package estimators

import (
	"fmt"
	"sort"
	"sync"

	"botmeter/internal/matcher"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// timingEntryPool recycles candidate entries (struct + attribution map)
// across streams and epochs. Per-candidate map allocation was the dominant
// MT allocation site (one map per bot activation per epoch); recycled maps
// keep their buckets, so a steady-state workload allocates no candidate
// state at all. Entries are returned on expiry (Advance) and at Release; the
// map comes back cleared.
var timingEntryPool = sync.Pool{
	New: func() any { return &timingEntry{seen: make(map[int32]struct{}, 8)} },
}

func getTimingEntry(first sim.Time) *timingEntry {
	e := timingEntryPool.Get().(*timingEntry)
	e.first = first
	return e
}

func putTimingEntry(e *timingEntry) {
	clear(e.seen)
	timingEntryPool.Put(e)
}

// Expiring is implemented by the EpochStreams that hold state a watermark
// can retire (MT's candidates). The other streams' state is already a
// bounded sufficient statistic and they have nothing to advance.
type Expiring interface {
	// Advance tells the stream that no future record will carry a
	// timestamp below watermark, letting it expire state that can no
	// longer influence the estimate.
	Advance(watermark sim.Time)
	// NextExpiry reports the lowest watermark at which Advance has
	// something to expire, and false while the stream holds nothing that
	// can. The time never moves backwards while the stream holds state, so
	// a caller may sleep on it: a stream shard queues a server's walk by
	// this time instead of advancing every stream on every record.
	NextExpiry() (sim.Time, bool)
}

// TimingStream is Algorithm 1 over a timestamp-ordered stream, with
// candidate-entry expiry so memory is bounded by the number of
// SIMULTANEOUSLY active candidates rather than the epoch's record count.
// Candidates are created in record order, so their `first` fields — and
// their expiry times first+θq·δi — are non-decreasing. An entry expired
// against the current record's timestamp (heuristic #2: first+maxDuration
// ≤ t) can never absorb that record or any later one, so counting it and
// freeing its domain set changes nothing: expiry, wherever a watermark
// triggers it, never moves the count.
type TimingStream struct {
	deltaI      sim.Time
	useModulo   bool
	maxDuration sim.Time

	// active candidates in creation order; `first` is non-decreasing, so
	// expiry always pops a prefix.
	active []*timingEntry
	// expired counts candidates whose absorption window has passed and
	// whose domain sets have been freed.
	expired int
}

// OpenEpoch implements Estimator.
func (*Timing) OpenEpoch(_ int, cfg Config) EpochStream {
	if !cfg.normalized {
		cfg = cfg.withDefaults()
	}
	deltaI := cfg.Spec.QueryInterval
	return &TimingStream{
		deltaI:      deltaI,
		useModulo:   deltaI > 0 && (cfg.Granularity == 0 || cfg.Granularity <= deltaI),
		maxDuration: cfg.Spec.MaxDuration(),
	}
}

// Observe implements EpochStream.
func (s *TimingStream) Observe(rec trace.ObservedRecord) {
	// Expire candidates that can no longer absorb rec or anything after
	// it (timestamps are non-decreasing from here on).
	s.Advance(rec.T)
	for _, entry := range s.active {
		// The three heuristics only skip the candidate, so their order is
		// free: the two arithmetic checks go before the map probe.
		// Heuristic #2: beyond the maximum activation duration. Active
		// entries are only pre-expired against rec.T, which uses the
		// same condition, so this re-check is for entries that survived.
		if entry.first+s.maxDuration <= rec.T {
			continue
		}
		// Heuristic #3: offset must be a multiple of δi.
		if s.useModulo && (rec.T-entry.first)%s.deltaI != 0 {
			continue
		}
		// Heuristic #1: domain already attributed to this bot.
		if _, seen := entry.seen[rec.Pos]; seen {
			continue
		}
		entry.seen[rec.Pos] = struct{}{}
		return
	}
	entry := getTimingEntry(rec.T)
	entry.seen[rec.Pos] = struct{}{}
	s.active = append(s.active, entry)
}

// Advance implements Expiring: candidates whose absorption window ends
// at or before watermark are folded into the expired count and their
// domain sets freed.
func (s *TimingStream) Advance(watermark sim.Time) {
	n := 0
	for n < len(s.active) && s.active[n].first+s.maxDuration <= watermark {
		putTimingEntry(s.active[n]) // recycle the entry and its domain map
		s.active[n] = nil
		n++
	}
	if n > 0 {
		s.expired += n
		s.active = s.active[n:]
	}
}

// NextExpiry implements Expiring: candidates are held in creation order, so
// the oldest is the first to go.
func (s *TimingStream) NextExpiry() (sim.Time, bool) {
	if len(s.active) == 0 {
		return 0, false
	}
	return s.active[0].first + s.maxDuration, true
}

// Estimate implements EpochStream: the candidate count so far.
func (s *TimingStream) Estimate() float64 {
	return float64(s.expired + len(s.active))
}

// ActiveCandidates reports how many candidates still hold domain state —
// the stream's memory footprint, exposed for bounded-memory assertions.
func (s *TimingStream) ActiveCandidates() int { return len(s.active) }

// Release implements Releasable: it recycles every still-active candidate
// entry. Called after the final Estimate of an epoch (by EstimateEpoch, and by
// a Walk closing the cell). The stream must not Observe afterwards.
func (s *TimingStream) Release() {
	for i, entry := range s.active {
		putTimingEntry(entry)
		s.active[i] = nil
	}
	s.expired += len(s.active)
	s.active = s.active[:0]
}

// TimingState is the serializable state of one TimingStream — everything a
// checkpoint must persist to resume incremental MT estimation exactly where
// it stopped. Candidate order is significant (Observe scans candidates in
// creation order), so Active is a slice, not a set; the domain sets inside
// each candidate are order-insensitive and exported sorted for stable
// checkpoint bytes.
type TimingState struct {
	Expired int
	Active  []TimingCandidate
}

// TimingCandidate is one still-absorbing candidate bot.
type TimingCandidate struct {
	First   sim.Time
	Domains []string
}

// ExportState implements EpochStream. Positions leave the process as the
// names the epoch's matcher gives them, sorted, so the bytes depend on what
// was observed and on nothing else.
func (s *TimingStream) ExportState(names *matcher.Attribution) EpochState {
	st := &TimingState{Expired: s.expired}
	if len(s.active) > 0 {
		st.Active = make([]TimingCandidate, len(s.active))
	}
	for i, entry := range s.active {
		domains := make([]string, 0, len(entry.seen))
		for pos := range entry.seen {
			domains = append(domains, names.Name(pos))
		}
		sort.Strings(domains)
		st.Active[i] = TimingCandidate{First: entry.first, Domains: domains}
	}
	return EpochState{Timing: st}
}

// RestoreState implements EpochStream, resolving each candidate's names back
// to positions through the epoch's matcher. A name the matcher does not hold means the state was taken under
// another configuration or is damaged: an error, after which the stream is
// to be discarded. The stream's configuration (δi, max duration) is NOT part
// of the state — it is re-derived from the engine config at OpenEpoch, which
// checkpoint recovery validates via the config fingerprint.
func (s *TimingStream) RestoreState(es EpochState, names *matcher.Attribution) error {
	st := es.Timing
	if st == nil {
		return fmt.Errorf("missing timing state")
	}
	s.Release()
	for _, cand := range st.Active {
		entry := getTimingEntry(cand.First)
		s.active = append(s.active, entry)
		for _, d := range cand.Domains {
			pos, ok := names.Resolve(trace.ObservedRecord{Domain: d})
			if !ok {
				s.Release()
				return fmt.Errorf("candidate domain %q is not one the epoch's matcher holds", d)
			}
			entry.seen[pos] = struct{}{}
		}
	}
	s.expired = st.Expired
	return nil
}
