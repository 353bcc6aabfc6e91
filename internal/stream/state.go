package stream

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"botmeter/internal/estimators"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// This file is the serialization half of checkpoint/recovery (DESIGN.md
// §15): EngineState captures everything the engine holds in memory —
// per-shard reorder heaps, watermarks, sequence counters, per-(server,
// epoch) estimator state, closed-epoch results and ingest tallies — in a
// form that Restore turns back into a running engine byte-identical to the
// original. The same shape is what ROADMAP item 1's multi-vantage merge
// coordinator consumes.
//
// Determinism rules the format obeys, so a kill–resume run reproduces the
// uninterrupted run exactly:
//
//   - Order-significant state stays ordered: the estimator set (every
//     cell's states and closed values are in set order), TimingStream
//     candidates (scan order), the reorder heap (exported in heap-array
//     order; re-pushing a valid heap array in order rebuilds the identical
//     array) and the per-shard seq counter (tie order for equal
//     timestamps).
//   - Order-insensitive state (per-epoch maps, server maps) is exported
//     sorted, so the same engine state always serializes to the same bytes
//     and checkpoints diff cleanly; the decoder refuses it in any other
//     order (statecodec.go), so MergeStates can fold it run by run.
//   - What the engine holds as pool positions (MT candidates, buffered
//     records) is serialized as names, through the epoch's matcher
//     (matcher.Attribution.Name), and restored through the same Resolve
//     every ingested record goes through. A name that matcher does not hold
//     fails the restore: it can only come from a damaged state.

// Fingerprint pins the configuration a checkpoint was taken under. Restore
// refuses a state whose fingerprint differs from the restoring engine's:
// estimator state is only meaningful under the exact analysis parameters
// that produced it (a different seed means different pools, a different
// reorder window a different drop pattern, a different shard count a
// different record partition and tie order).
type Fingerprint struct {
	Family string
	Model  string
	// Estimators names the estimator set in set order, comma-separated:
	// "MP,MT" for MP with the MT second opinion.
	Estimators       string
	Seed             uint64
	EpochLen         sim.Time
	NegativeTTL      sim.Time
	Granularity      sim.Time
	Detection        bool
	DetectMiss       float64
	DetectCollisions int
	DetectSeed       uint64
	Shards           int
	ReorderWindow    sim.Time
	MaxReorder       int
	WindowStart      sim.Time
	WindowEnd        sim.Time
}

// fingerprint derives the engine's fingerprint from its (defaulted) config.
func (e *Engine) fingerprint() Fingerprint {
	c := e.cfg
	fp := Fingerprint{
		Family:        c.Core.Family.Name,
		Model:         c.Core.Family.ModelName(),
		Estimators:    strings.Join(e.bm.Estimators(), ","),
		Seed:          c.Core.Seed,
		EpochLen:      c.Core.EpochLen,
		NegativeTTL:   c.Core.NegativeTTL,
		Granularity:   c.Core.Granularity,
		Shards:        c.Shards,
		ReorderWindow: c.ReorderWindow,
		MaxReorder:    c.MaxReorder,
		WindowStart:   c.Window.Start,
		WindowEnd:     c.Window.End,
	}
	if d := c.Core.Detection; d != nil {
		fp.Detection = true
		fp.DetectMiss = d.MissRate
		fp.DetectCollisions = d.Collisions
		fp.DetectSeed = d.Seed
	}
	return fp
}

// SourcePos locates the checkpoint cut in the input stream: how many
// well-formed records the feeder had consumed (skipped or observed) when
// the state was exported. Resume replays the source, discarding the first
// Records records, so every record is applied exactly once across the
// crash — including its effect on epoch close.
type SourcePos struct {
	// Records is the number of well-formed records consumed from the
	// source. Malformed lines skipped by lenient parsing are not counted,
	// so the count is stable across re-parses.
	Records uint64
	// Path and Bytes describe the source file at checkpoint time when
	// known. A current file smaller than Bytes means the source was
	// truncated or replaced since the checkpoint — the state is stale and
	// recovery must fall back to a fresh start.
	Path  string
	Bytes int64
}

// EngineState is the complete serializable state of a streaming engine.
type EngineState struct {
	Fingerprint Fingerprint
	Source      SourcePos
	// Vantages names the observation points whose records this state
	// covers: the engine's own Config.Vantage for a live export, the sorted
	// union of the inputs' after MergeStates. Vantage identity is NOT part
	// of the fingerprint — states from different vantages under one
	// analysis config are exactly what a coordinator merges — but
	// MergeStates refuses to fold two states claiming the same vantage:
	// a re-merge of the same snapshot would double MP/NC/MT atoms.
	Vantages []string
	Shards   []ShardState
}

// ShardState is one ingest shard's state. Everything but Buffer and Servers
// is the shard's header, which a live shard holds as it is: a shard embeds a
// ShardState with Buffer and Servers left nil (its reorder heap and server
// map hold those), so an export copies the header out whole and a restore
// copies it back.
type ShardState struct {
	// Seq is the next arrival sequence number (tie order).
	Seq uint64
	// Watermark is the low-water mark: no record with T < Watermark will
	// ever be emitted again. Monotone by construction; math.MinInt64 until
	// the first matched record.
	Watermark sim.Time
	// MinT and MaxT span every ingested record, matched or not — the
	// source of the derived analysis window, mirroring cmd/botmeter — once
	// HasData is set.
	MinT, MaxT sim.Time
	HasData    bool
	// MaxEmittedEpoch is the highest epoch that has received an emission;
	// epochs below it are closed as soon as it advances.
	MaxEmittedEpoch int
	PeakRetained    int
	Stats           ShardStats
	Buffer          []RecordEntry
	Servers         []ServerState
}

// emptyShardState is the header of a shard that has seen nothing: no
// watermark, an empty time span, no epoch emitted.
func emptyShardState() ShardState {
	return ShardState{
		Watermark:       math.MinInt64,
		MinT:            math.MaxInt64,
		MaxT:            math.MinInt64,
		MaxEmittedEpoch: math.MinInt64,
	}
}

// ShardStats is one shard's ingest tally; ShardStat carries it, and Stats
// the sum over the shards.
type ShardStats struct {
	// Ingested counts every record handed to Observe and processed.
	Ingested uint64
	// Matched counts records attributed to the target DGA and emitted to
	// estimation (excludes late drops).
	Matched uint64
	// Unmatched counts records outside the family's (detected) pool.
	Unmatched uint64
	// DroppedLate counts matched records older than the watermark.
	DroppedLate uint64
	// ReorderEvictions counts forced emissions from a full reorder buffer.
	ReorderEvictions uint64
	// EpochsClosed counts (server, epoch) cells finalised.
	EpochsClosed uint64
}

// add sums o into t.
func (t *ShardStats) add(o ShardStats) {
	t.Ingested += o.Ingested
	t.Matched += o.Matched
	t.Unmatched += o.Unmatched
	t.DroppedLate += o.DroppedLate
	t.ReorderEvictions += o.ReorderEvictions
	t.EpochsClosed += o.EpochsClosed
}

// RecordEntry is one record of a shard's reorder buffer, with its arrival
// sequence (tie order).
type RecordEntry struct {
	T      sim.Time
	Seq    uint64
	Server string
	Domain string
}

// ServerState is one forwarding server's accumulated landscape state: its
// tally and what its walk exports — each closed epoch's values and each open
// cell's statistics, one per estimator of the set. What is inside a
// statistic is the estimators package's business; this package moves it and
// gives it bytes (statecodec.go).
type ServerState struct {
	Name    string
	Matched int
	Closed  []estimators.EpochValues
	Open    []estimators.CellState
}

// ExportState captures the engine's complete serializable state through a
// per-shard barrier: each shard exports under its own mutex once it has
// ingested the records delivered to it before the request, all while the
// engine is guaranteed open.
// Called from the feeding goroutine (the single-feeder pattern of Follow
// and cmd/vantage) the cut is exact — precisely the records fed so far.
// The engine keeps running; the returned state shares nothing with it.
//
// Source is left zero: the caller (Checkpointer, federation coordinator)
// knows where the feed stands, the engine does not.
func (e *Engine) ExportState() (*EngineState, error) {
	shards, err := e.barrier(false)
	if err != nil {
		return nil, err
	}
	st := &EngineState{Fingerprint: e.fingerprint(), Shards: shards}
	if v := e.cfg.Vantage; v != "" {
		st.Vantages = []string{v}
	}
	return st, nil
}

// Quiesce forces every buffered record out of the reorder buffers in
// timestamp order and advances each shard's watermark to its newest
// emitted record, without closing the current epochs. It is only correct
// when no record older than the buffered maximum can still arrive —
// e.g. after replaying a historical file, before switching to live traffic
// stamped with the current time. cmd/vantage calls it after crash-recovery
// replay so /landscape immediately reflects every replayed record instead
// of lagging one reorder window behind.
func (e *Engine) Quiesce() error {
	_, err := e.barrier(true)
	return err
}

// barrier queues one request — quiesce, or export — in every shard's inbox
// while the engine is guaranteed open, so each is served at its queue
// position (see serveLocked), and returns the shards' exported states, nil
// ones when quiescing.
func (e *Engine) barrier(quiesce bool) ([]ShardState, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, fmt.Errorf("stream: engine closed")
	}
	reqs := make([]*shardCtl, len(e.shards))
	for i, s := range e.shards {
		reqs[i] = &shardCtl{quiesce: quiesce, done: make(chan struct{})}
		s.in.request(reqs[i])
	}
	states := make([]ShardState, len(reqs))
	for i, req := range reqs {
		<-req.done
		states[i] = req.state
	}
	return states, nil
}

// Restore builds and starts an engine from a previously exported state.
// cfg must describe the same deployment that produced the state (enforced
// via the fingerprint); cfg.Shards may be left 0 to adopt the checkpoint's
// shard count — the only safe choice, since the shard count determines the
// record partition. The caller then replays the source from
// st.Source.Records to catch up.
func Restore(cfg Config, st *EngineState) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("stream: nil checkpoint state")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = st.Fingerprint.Shards
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if fp := e.fingerprint(); fp != st.Fingerprint {
		return nil, &FingerprintMismatchError{Checkpoint: st.Fingerprint, Engine: fp}
	}
	if len(st.Shards) != len(e.shards) {
		return nil, fmt.Errorf("stream: checkpoint has %d shard states for %d shards", len(st.Shards), len(e.shards))
	}
	for i, s := range e.shards {
		if err := s.importState(st.Shards[i]); err != nil {
			return nil, fmt.Errorf("stream: shard %d: %w", i, err)
		}
		e.restored.add(st.Shards[i].Stats)
	}
	e.start()
	return e, nil
}

// exportLocked serialises the shard. Holding mu inside the shard goroutine,
// nothing can mutate concurrently; everything is deep-copied.
func (s *shard) exportLocked() ShardState {
	st := s.ShardState
	if n := s.buf.len(); n > 0 {
		st.Buffer = make([]RecordEntry, n)
		epochLen := s.eng.cfg.Core.EpochLen
		for i, en := range s.buf.entries {
			name := s.eng.bm.Matcher(int(en.t / epochLen)).Name(en.pos)
			st.Buffer[i] = RecordEntry{T: en.t, Seq: en.seq, Server: en.server, Domain: name}
		}
	}
	names := make([]string, 0, len(s.servers))
	for name := range s.servers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sv := s.servers[name]
		ss := ServerState{Name: name, Matched: sv.matched}
		ss.Closed, ss.Open = sv.walk.Export(s.eng.bm.Matcher)
		st.Servers = append(st.Servers, ss)
	}
	return st
}

// importState loads one shard's state. Called before the shard goroutine
// starts; the mutex is held for form (Stats/Snapshot are already callable).
func (s *shard) importState(st ShardState) error {
	e := s.eng
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ShardState = st
	s.Buffer, s.Servers = nil, nil
	// The close mark and the expiry queue are derived from the state, not
	// part of it: the first close after a restore walks the servers again,
	// and the queue is rebuilt from the cells below.
	s.closedThrough = math.MinInt64
	s.expiry = nil
	for _, en := range st.Buffer {
		epoch := int(en.T / e.cfg.Core.EpochLen)
		pos, ok := e.bm.Matcher(epoch).Resolve(trace.ObservedRecord{Domain: en.Domain})
		if !ok {
			return fmt.Errorf("reorder buffer: server %s epoch %d: domain %q is not one the epoch's matcher holds", en.Server, epoch, en.Domain)
		}
		s.buf.push(reorderEntry{t: en.T, seq: en.Seq, server: en.Server, pos: pos})
	}
	for _, ss := range st.Servers {
		sv := s.newServer()
		sv.matched = ss.Matched
		if err := sv.walk.Restore(ss.Closed, ss.Open, s.eng.bm.Matcher); err != nil {
			return fmt.Errorf("server %s %w", ss.Name, err)
		}
		s.queueExpiryLocked(sv)
		s.servers[ss.Name] = sv
	}
	s.retained = s.buf.len()
	s.PeakRetained = max(s.PeakRetained, s.retained)
	return nil
}
