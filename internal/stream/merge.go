package stream

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"botmeter/internal/core"
	"botmeter/internal/d3"
	"botmeter/internal/dga"
	"botmeter/internal/estimators"
	"botmeter/internal/sim"
)

// This file lifts the estimator merge algebra (internal/estimators/merge.go)
// to whole engines (DESIGN.md §18, ROADMAP item 1): MergeStates folds N
// vantage engines' exported EngineStates into one state that Restore turns
// into a coordinator engine whose landscape — under server-disjoint vantage
// partitions, the paper's Figure-2 deployment shape — is byte-identical to
// a single engine that saw the union of all records. cmd/landscape-server
// is the daemon around it; Merger is its copy-on-write snapshot table.
//
// The construction is CANONICAL: every order-insensitive collection is
// sorted, every map union is deterministic, so MergeStates(MergeStates(x))
// is byte-identical to MergeStates(x) and the N-way differential can
// compare serialized landscapes directly.

// FingerprintMismatchError reports a checkpoint or merge input whose
// analysis configuration differs from its counterpart — with the exact
// differing fields, so an operator (or the landscape-server's /healthz)
// can see WHICH knob diverged instead of a bare "fingerprint mismatch".
type FingerprintMismatchError struct {
	// Checkpoint is the fingerprint carried by the state being restored or
	// merged; Engine is the one it was checked against (the restoring
	// engine's, or the first merge input's).
	Checkpoint Fingerprint
	Engine     Fingerprint
}

// Diff lists the differing fields as "name: checkpoint v₁, engine v₂"
// strings, in fingerprint field order.
func (e *FingerprintMismatchError) Diff() []string {
	a, b := e.Checkpoint, e.Engine
	var out []string
	add := func(name string, av, bv any) {
		if av != bv {
			out = append(out, fmt.Sprintf("%s: checkpoint %v, engine %v", name, av, bv))
		}
	}
	add("family", a.Family, b.Family)
	add("model", a.Model, b.Model)
	add("estimators", a.Estimators, b.Estimators)
	add("seed", a.Seed, b.Seed)
	add("epoch_len", a.EpochLen, b.EpochLen)
	add("negative_ttl", a.NegativeTTL, b.NegativeTTL)
	add("granularity", a.Granularity, b.Granularity)
	add("detection", a.Detection, b.Detection)
	add("detect_miss", a.DetectMiss, b.DetectMiss)
	add("detect_collisions", a.DetectCollisions, b.DetectCollisions)
	add("detect_seed", a.DetectSeed, b.DetectSeed)
	add("shards", a.Shards, b.Shards)
	add("reorder_window", a.ReorderWindow, b.ReorderWindow)
	add("max_reorder", a.MaxReorder, b.MaxReorder)
	add("window_start", a.WindowStart, b.WindowStart)
	add("window_end", a.WindowEnd, b.WindowEnd)
	return out
}

func (e *FingerprintMismatchError) Error() string {
	diff := e.Diff()
	if len(diff) == 0 {
		return "stream: checkpoint fingerprint mismatch"
	}
	return "stream: checkpoint fingerprint mismatch: " + strings.Join(diff, "; ")
}

// DuplicateVantageError reports a merge whose inputs claim the same
// vantage twice. Re-merging the same snapshot is rejected rather than
// tolerated because MP/NC/MT state is a multiset — a self-merge would
// double every activation cluster and timing candidate. Idempotent
// re-merge of a REFRESHED snapshot goes through Merger, which replaces
// the vantage's previous snapshot instead of adding to it.
type DuplicateVantageError struct {
	Vantage string
}

func (e *DuplicateVantageError) Error() string {
	return fmt.Sprintf("stream: merge: vantage %q appears in more than one snapshot (re-merging the same vantage would double-count multiset estimator state)", e.Vantage)
}

// MergeConflictError reports two inputs carrying irreconcilable state for
// the same (server, epoch) cell — differing closed-epoch values, or
// estimator state of different kinds (or one input holding several, or a
// count of them that is not the set's). Under
// a server-disjoint vantage partition this cannot happen; it means two
// vantages saw the same forwarding server, or a corrupted state.
type MergeConflictError struct {
	Server string
	Epoch  int
	Detail string
}

func (e *MergeConflictError) Error() string {
	return fmt.Sprintf("stream: merge conflict at server %q epoch %d: %s", e.Server, e.Epoch, e.Detail)
}

// analysisFingerprintsEqual reports whether two fingerprints agree on
// everything except the shard count — the one knob vantages may legally
// differ on, since sharding is a process-local parallelism choice, not an
// analysis parameter.
func analysisFingerprintsEqual(a, b Fingerprint) bool {
	a.Shards = 0
	b.Shards = 0
	return a == b
}

// mergeServer accumulates one forwarding server's state across inputs.
type mergeServer struct {
	matched int
	domains []DomainKey
	closed  map[int][]float64
	open    map[int]*estimators.CellState
}

// mergeShardAccum accumulates one output shard.
type mergeShardAccum struct {
	watermark       int64
	minT            int64
	maxT            int64
	hasData         bool
	maxEmittedEpoch int
	peakRetained    int
	stats           ShardStats
	buffer          []RecordEntry
	servers         map[string]*mergeServer
}

func newMergeShardAccum() *mergeShardAccum {
	return &mergeShardAccum{
		watermark:       math.MinInt64,
		minT:            math.MaxInt64,
		maxT:            math.MinInt64,
		maxEmittedEpoch: math.MinInt64,
		servers:         make(map[string]*mergeServer),
	}
}

// foldScalars folds one input shard's scalar plane into the accumulator:
// watermark takes the minimum (no input would have dropped a record newer
// than its own watermark, so the merged engine may only be MORE permissive),
// minT/maxT span the union, maxEmittedEpoch the maximum, stats sum.
func (acc *mergeShardAccum) foldScalars(in ShardState) {
	if in.Watermark < acc.watermark {
		acc.watermark = in.Watermark
	}
	if in.MinT < acc.minT {
		acc.minT = in.MinT
	}
	if in.MaxT > acc.maxT {
		acc.maxT = in.MaxT
	}
	acc.hasData = acc.hasData || in.HasData
	if in.MaxEmittedEpoch > acc.maxEmittedEpoch {
		acc.maxEmittedEpoch = in.MaxEmittedEpoch
	}
	acc.peakRetained += in.PeakRetained
	acc.stats.Ingested += in.Stats.Ingested
	acc.stats.Matched += in.Stats.Matched
	acc.stats.Unmatched += in.Stats.Unmatched
	acc.stats.DroppedLate += in.Stats.DroppedLate
	acc.stats.ReorderEvictions += in.Stats.ReorderEvictions
	acc.stats.EpochsClosed += in.Stats.EpochsClosed
}

// mergeCell folds cell cs into dst, the accumulated cell of the same (server,
// epoch) — nil for the first input that holds one, which is deep-copied.
// Each estimator's state merges by its own algebra
// (estimators.EpochState.Merge).
func mergeCell(server string, dst *estimators.CellState, cs estimators.CellState) (*estimators.CellState, error) {
	if dst == nil {
		dst = &estimators.CellState{Epoch: cs.Epoch, States: make([]estimators.EpochState, len(cs.States))}
	}
	if len(dst.States) != len(cs.States) {
		return nil, &MergeConflictError{Server: server, Epoch: cs.Epoch,
			Detail: fmt.Sprintf("%d estimator states against %d", len(cs.States), len(dst.States))}
	}
	for i := range cs.States {
		var err error
		if dst.States[i], err = dst.States[i].Merge(cs.States[i]); err != nil {
			return nil, &MergeConflictError{Server: server, Epoch: cs.Epoch, Detail: err.Error()}
		}
	}
	return dst, nil
}

// MergeStates folds N exported engine states into one canonical state, the
// inverse-direction half of the batch↔(N-way merged stream) differential:
//
//   - All inputs must share the analysis fingerprint; only the shard count
//     may differ (it is a process-local choice). The output adopts the
//     LARGEST input shard count.
//   - Vantage names must be pairwise disjoint — merging the same vantage's
//     snapshot twice is a DuplicateVantageError, because MP/NC/MT state is
//     a multiset (see estimators/merge.go). Refreshing a vantage goes
//     through Merger, which replaces rather than re-merges.
//   - Forwarding servers and buffered records are routed onto output
//     shards by the same FNV-1a server hash the engine uses, so when every
//     input already runs the output shard count the placement — and hence
//     the per-shard float accumulation order of Snapshot — reproduces a
//     single engine's exactly. Per-server state merges via the estimator
//     algebra; closed epochs must agree where they overlap. Domain sets
//     union as sorted key runs, with no name looked up: a name two inputs
//     met first in different epochs stays under both keys, and Restore
//     keeps the smaller.
//   - Shard scalars (watermark, time span, ingest tallies) merge per index
//     when every input has the output shard count — exact, because then
//     input shard i holds precisely the servers output shard i holds.
//     Inputs with differing shard counts fold their scalars into output
//     shard 0 instead: totals (and therefore the landscape's ingest block)
//     stay exact, per-shard attribution turns coarse, and the result is
//     meant for snapshot serving rather than continued ingest.
//   - Reorder buffers merge sorted by (T, Server, Domain) with fresh
//     arrival sequence numbers 0..n−1 (shard seq counter n). Equal-
//     timestamp tie order across vantages is unknowable, so the canonical
//     order stands in — the same documented MT tie tolerance as the
//     batch↔stream contract.
//
// The output is canonical: MergeStates of its own output is byte-identical
// (the Merger re-merge path and the fuzz round-trip rely on this). Source
// is zeroed — the coordinator, not the engine, knows where N feeds stand.
func MergeStates(states ...*EngineState) (*EngineState, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("stream: merge of zero states")
	}
	for i, st := range states {
		if st == nil {
			return nil, fmt.Errorf("stream: merge input %d is nil", i)
		}
		if len(st.Shards) == 0 {
			return nil, fmt.Errorf("stream: merge input %d has no shard states", i)
		}
		if st.Fingerprint.Shards != len(st.Shards) {
			return nil, fmt.Errorf("stream: merge input %d carries %d shard states but fingerprints %d shards",
				i, len(st.Shards), st.Fingerprint.Shards)
		}
	}
	fp0 := states[0].Fingerprint
	outShards := 0
	uniform := true
	for _, st := range states {
		if !analysisFingerprintsEqual(fp0, st.Fingerprint) {
			return nil, &FingerprintMismatchError{Checkpoint: st.Fingerprint, Engine: fp0}
		}
		if len(st.Shards) > outShards {
			outShards = len(st.Shards)
		}
	}
	for _, st := range states {
		if len(st.Shards) != outShards {
			uniform = false
		}
	}

	seenVantage := make(map[string]struct{})
	var vantages []string
	for _, st := range states {
		for _, v := range st.Vantages {
			if _, dup := seenVantage[v]; dup {
				return nil, &DuplicateVantageError{Vantage: v}
			}
			seenVantage[v] = struct{}{}
			vantages = append(vantages, v)
		}
	}
	sort.Strings(vantages)

	accs := make([]*mergeShardAccum, outShards)
	for i := range accs {
		accs[i] = newMergeShardAccum()
	}
	for _, st := range states {
		for idx, sh := range st.Shards {
			// Scalar plane: exact per-index when shard counts line up,
			// else folded coarsely into shard 0 (totals stay exact).
			if uniform {
				accs[idx].foldScalars(sh)
			} else {
				accs[0].foldScalars(sh)
			}
			for _, en := range sh.Buffer {
				out := accs[shardIndex(en.Server, outShards)]
				out.buffer = append(out.buffer, RecordEntry{T: en.T, Server: en.Server, Domain: en.Domain})
			}
			for _, ss := range sh.Servers {
				acc := accs[shardIndex(ss.Name, outShards)]
				sv := acc.servers[ss.Name]
				if sv == nil {
					sv = &mergeServer{
						closed: make(map[int][]float64, len(ss.Closed)),
						open:   make(map[int]*estimators.CellState, len(ss.Open)),
					}
					acc.servers[ss.Name] = sv
				}
				sv.matched += ss.Matched
				sv.domains = unionKeys(sv.domains, ss.Domains)
				for _, ev := range ss.Closed {
					if prev, ok := sv.closed[ev.Epoch]; ok && !slices.Equal(prev, ev.Values) {
						return nil, &MergeConflictError{Server: ss.Name, Epoch: ev.Epoch,
							Detail: fmt.Sprintf("closed estimates differ (%v vs %v)", prev, ev.Values)}
					}
					sv.closed[ev.Epoch] = slices.Clone(ev.Values)
				}
				for _, cs := range ss.Open {
					cell, err := mergeCell(ss.Name, sv.open[cs.Epoch], cs)
					if err != nil {
						return nil, err
					}
					sv.open[cs.Epoch] = cell
				}
			}
		}
	}

	out := &EngineState{Fingerprint: fp0, Vantages: vantages}
	out.Fingerprint.Shards = outShards
	out.Shards = make([]ShardState, outShards)
	for idx, acc := range accs {
		sh := ShardState{
			Watermark:       acc.watermark,
			MinT:            acc.minT,
			MaxT:            acc.maxT,
			HasData:         acc.hasData,
			MaxEmittedEpoch: acc.maxEmittedEpoch,
			PeakRetained:    acc.peakRetained,
			Stats:           acc.stats,
		}
		if n := len(acc.buffer); n > 0 {
			sort.Slice(acc.buffer, func(i, j int) bool {
				a, b := acc.buffer[i], acc.buffer[j]
				if a.T != b.T {
					return a.T < b.T
				}
				if a.Server != b.Server {
					return a.Server < b.Server
				}
				return a.Domain < b.Domain
			})
			for i := range acc.buffer {
				acc.buffer[i].Seq = uint64(i)
			}
			sh.Buffer = acc.buffer
			sh.Seq = uint64(n)
		}
		names := make([]string, 0, len(acc.servers))
		for name := range acc.servers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sv := acc.servers[name]
			ss := ServerState{Name: name, Matched: sv.matched, Domains: sv.domains}
			for _, ep := range sortedEpochs(sv.closed) {
				ss.Closed = append(ss.Closed, estimators.EpochValues{Epoch: ep, Values: sv.closed[ep]})
			}
			for _, ep := range sortedEpochs(sv.open) {
				ss.Open = append(ss.Open, *sv.open[ep])
			}
			sh.Servers = append(sh.Servers, ss)
		}
		out.Shards[idx] = sh
	}
	return out, nil
}

// unionKeys returns the union of two strictly ascending key runs, ascending,
// in a slice of its own. Keys are compared, never resolved: one name under
// two keys stays two keys until a restore collapses them.
func unionKeys(a, b []DomainKey) []DomainKey {
	out := make([]DomainKey, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// sortedEpochs returns a per-epoch map's epochs, ascending.
func sortedEpochs[V any](m map[int]V) []int {
	epochs := make([]int, 0, len(m))
	for ep := range m {
		epochs = append(epochs, ep)
	}
	sort.Ints(epochs)
	return epochs
}

// ConfigForState reconstructs the engine configuration a state was taken
// under, purely from its fingerprint — what lets a coordinator Restore a
// merged state without out-of-band configuration. The family must be in
// the registry (dga.Lookup) and the estimator must be one of the standard
// constructions; bespoke estimator instances are not reconstructible and
// are reported as errors.
func ConfigForState(st *EngineState) (Config, error) {
	if st == nil {
		return Config{}, fmt.Errorf("stream: nil state")
	}
	fp := st.Fingerprint
	spec, err := dga.Lookup(fp.Family)
	if err != nil {
		return Config{}, fmt.Errorf("stream: state's family is not in the registry: %w", err)
	}
	if got := spec.ModelName(); got != fp.Model {
		return Config{}, fmt.Errorf("stream: family %q is model %s in this build, state fingerprints %s", fp.Family, got, fp.Model)
	}
	cfg := Config{
		Core: core.Config{
			Family:      spec,
			Seed:        fp.Seed,
			EpochLen:    fp.EpochLen,
			NegativeTTL: fp.NegativeTTL,
			Granularity: fp.Granularity,
		},
		Shards:        fp.Shards,
		ReorderWindow: fp.ReorderWindow,
		MaxReorder:    fp.MaxReorder,
		Window:        sim.Window{Start: fp.WindowStart, End: fp.WindowEnd},
	}
	if fp.Detection {
		cfg.Core.Detection = &d3.Window{MissRate: fp.DetectMiss, Collisions: fp.DetectCollisions, Seed: fp.DetectSeed}
	}
	if fp.Estimators == estimators.ForModel(spec).Name() {
		return cfg, nil // the taxonomy's choice
	}
	for _, name := range strings.Split(fp.Estimators, ",") {
		est, err := estimators.ByName(name)
		if err != nil {
			return Config{}, fmt.Errorf("stream: not reconstructible from a fingerprint: %w", err)
		}
		cfg.Core.Estimators = append(cfg.Core.Estimators, est)
	}
	return cfg, nil
}

// Merger is the landscape-server's snapshot table: the latest EngineState
// per vantage (or per fixed vantage group), replaced copy-on-write on every
// Update and folded fresh by Merged. Replacing-then-remerging is what makes
// repeated pulls of the same vantage idempotent even though the underlying
// state algebra rejects self-merge.
type Merger struct {
	mu    sync.Mutex
	fp    *Fingerprint            // analysis fingerprint pinned by the first accepted snapshot
	snaps map[string]*EngineState // latest snapshot keyed by its vantage set
	byVan map[string]string       // vantage name → owning snapshot key
}

// NewMerger returns an empty snapshot table.
func NewMerger() *Merger {
	return &Merger{snaps: make(map[string]*EngineState), byVan: make(map[string]string)}
}

// Update installs a vantage's latest snapshot, replacing any previous
// snapshot covering the same vantage set. The snapshot must name at least
// one vantage (anonymous states cannot be replaced safely), must not
// partially overlap another vantage group, and must match the analysis
// fingerprint pinned by the first accepted snapshot — fingerprint failures
// are *FingerprintMismatchError, surfaced per-vantage by /healthz.
func (m *Merger) Update(st *EngineState) error {
	if st == nil {
		return fmt.Errorf("stream: nil snapshot")
	}
	if len(st.Vantages) == 0 {
		return fmt.Errorf("stream: snapshot names no vantage (run the engine with Config.Vantage set)")
	}
	if len(st.Shards) == 0 {
		return fmt.Errorf("stream: snapshot has no shard states")
	}
	key := strings.Join(st.Vantages, "\x00")
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fp != nil && !analysisFingerprintsEqual(*m.fp, st.Fingerprint) {
		return &FingerprintMismatchError{Checkpoint: st.Fingerprint, Engine: *m.fp}
	}
	for _, v := range st.Vantages {
		if owner, ok := m.byVan[v]; ok && owner != key {
			return fmt.Errorf("stream: vantage %q already belongs to snapshot group %q", v, strings.ReplaceAll(owner, "\x00", "+"))
		}
	}
	if m.fp == nil {
		fp := st.Fingerprint
		m.fp = &fp
	}
	m.snaps[key] = st
	for _, v := range st.Vantages {
		m.byVan[v] = key
	}
	return nil
}

// Merged folds the latest snapshot of every vantage into one canonical
// state. The fold order is deterministic (sorted group keys) and the
// result shares no memory with the stored snapshots.
func (m *Merger) Merged() (*EngineState, error) {
	m.mu.Lock()
	keys := make([]string, 0, len(m.snaps))
	for k := range m.snaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	states := make([]*EngineState, 0, len(keys))
	for _, k := range keys {
		states = append(states, m.snaps[k])
	}
	m.mu.Unlock()
	return MergeStates(states...)
}

// Vantages lists every vantage with an installed snapshot, sorted.
func (m *Merger) Vantages() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.byVan))
	for v := range m.byVan {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of installed snapshot groups.
func (m *Merger) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.snaps)
}
