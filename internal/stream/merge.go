package stream

import (
	"cmp"
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
// The construction is CANONICAL: every order-insensitive collection is a
// sorted run and every union folds runs in order, so MergeStates(MergeStates(x))
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

// foldHeader folds one input shard's header into h, which starts as
// emptyShardState: the watermark takes the minimum over the inputs that hold
// one (no input would have dropped a record newer than its own watermark, so
// the merged engine may only be MORE permissive), minT/maxT span the union,
// maxEmittedEpoch takes the maximum, peaks and tallies sum.
func (h *ShardState) foldHeader(in *ShardState) {
	if in.Watermark != math.MinInt64 && (h.Watermark == math.MinInt64 || in.Watermark < h.Watermark) {
		h.Watermark = in.Watermark
	}
	h.MinT = min(h.MinT, in.MinT)
	h.MaxT = max(h.MaxT, in.MaxT)
	h.HasData = h.HasData || in.HasData
	h.MaxEmittedEpoch = max(h.MaxEmittedEpoch, in.MaxEmittedEpoch)
	h.PeakRetained += in.PeakRetained
	h.Stats.add(in.Stats)
}

// foldRun folds run into acc, both strictly ascending by key, and returns the
// folded run, ascending too. An element whose key acc holds merges into it;
// any other is folded into a zero value, fresh, at its place — so the result
// shares no memory with run. An empty run leaves acc as it is.
func foldRun[T any, K cmp.Ordered](acc, run []T, key func(*T) K, fold func(dst, in *T, fresh bool) error) ([]T, error) {
	if len(run) == 0 {
		return acc, nil
	}
	out := make([]T, 0, len(acc)+len(run))
	i := 0
	for j := range run {
		k := key(&run[j])
		for i < len(acc) && key(&acc[i]) < k {
			out = append(out, acc[i])
			i++
		}
		var dst T
		fresh := i == len(acc) || key(&acc[i]) != k
		if !fresh {
			dst = acc[i]
			i++
		}
		if err := fold(&dst, &run[j], fresh); err != nil {
			return nil, err
		}
		out = append(out, dst)
	}
	return append(out, acc[i:]...), nil
}

// The keys the sorted runs of a shard state ascend by — what foldRun merges
// on and what the decoder checks (coder.shard, coder.server).
func serverName(ss *ServerState) string          { return ss.Name }
func closedEpoch(ev *estimators.EpochValues) int { return ev.Epoch }
func openEpoch(cs *estimators.CellState) int     { return cs.Epoch }

// mergeServer folds one input's state of a forwarding server into dst's:
// tallies sum, closed epochs must agree where they overlap, and open cells
// merge by the estimator algebra.
func mergeServer(dst, in *ServerState, _ bool) error {
	dst.Name = in.Name
	dst.Matched += in.Matched
	var err error
	dst.Closed, err = foldRun(dst.Closed, in.Closed, closedEpoch, func(d, ev *estimators.EpochValues, fresh bool) error {
		if fresh {
			*d = estimators.EpochValues{Epoch: ev.Epoch, Values: slices.Clone(ev.Values)}
		} else if !slices.Equal(d.Values, ev.Values) {
			return &MergeConflictError{Server: in.Name, Epoch: ev.Epoch,
				Detail: fmt.Sprintf("closed estimates differ (%v vs %v)", d.Values, ev.Values)}
		}
		return nil
	})
	if err != nil {
		return err
	}
	dst.Open, err = foldRun(dst.Open, in.Open, openEpoch, func(d, cs *estimators.CellState, fresh bool) error {
		return mergeCell(in.Name, d, cs, fresh)
	})
	return err
}

// mergeCell folds cell cs into dst, the accumulated cell of the same (server,
// epoch) — fresh for the first input that holds one, which is deep-copied.
// Each estimator's state merges by its own algebra
// (estimators.EpochState.Merge).
func mergeCell(server string, dst, cs *estimators.CellState, fresh bool) error {
	if fresh {
		*dst = estimators.CellState{Epoch: cs.Epoch, States: make([]estimators.EpochState, len(cs.States))}
	}
	if len(dst.States) != len(cs.States) {
		return &MergeConflictError{Server: server, Epoch: cs.Epoch,
			Detail: fmt.Sprintf("%d estimator states against %d", len(cs.States), len(dst.States))}
	}
	for i := range cs.States {
		var err error
		if dst.States[i], err = dst.States[i].Merge(cs.States[i]); err != nil {
			return &MergeConflictError{Server: server, Epoch: cs.Epoch, Detail: err.Error()}
		}
	}
	return nil
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
//     single engine's exactly. Every input holds its servers, and each
//     server its closed and open epochs, as strictly ascending runs (an
//     export sorts them, the decoder refuses anything else), so the merge
//     folds run into run with no map in between: per-server state merges
//     via the estimator algebra, and closed epochs must agree where they
//     overlap.
//   - Shard headers (watermark, time span, ingest tallies) merge per index
//     when every input has the output shard count — exact, because then
//     input shard i holds precisely the servers output shard i holds. The
//     watermark is the smallest any input holds. Inputs with differing
//     shard counts fold their headers into output shard 0 instead: totals
//     (and therefore the landscape's ingest block) stay exact, per-shard
//     attribution turns coarse, and the result is meant for snapshot
//     serving rather than continued ingest.
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

	out := &EngineState{Fingerprint: fp0, Vantages: vantages, Shards: make([]ShardState, outShards)}
	out.Fingerprint.Shards = outShards
	for i := range out.Shards {
		out.Shards[i] = emptyShardState()
	}
	// runs[o] is the current input shard's servers that land on output
	// shard o: a subsequence of a sorted run, so sorted itself, whether or
	// not the shard counts agree. Only the touched runs are visited, so a
	// frame claiming many shards costs what it holds, not shards squared.
	runs := make([][]ServerState, outShards)
	var touched []int
	for _, st := range states {
		for idx := range st.Shards {
			in := &st.Shards[idx]
			// Header: exact per-index when shard counts line up, else folded
			// coarsely into shard 0 (totals stay exact).
			if uniform {
				out.Shards[idx].foldHeader(in)
			} else {
				out.Shards[0].foldHeader(in)
			}
			for _, en := range in.Buffer {
				sh := &out.Shards[shardIndex(en.Server, outShards)]
				sh.Buffer = append(sh.Buffer, RecordEntry{T: en.T, Server: en.Server, Domain: en.Domain})
			}
			touched = touched[:0]
			for _, ss := range in.Servers {
				o := shardIndex(ss.Name, outShards)
				if len(runs[o]) == 0 {
					touched = append(touched, o)
				}
				runs[o] = append(runs[o], ss)
			}
			for _, o := range touched {
				var err error
				if out.Shards[o].Servers, err = foldRun(out.Shards[o].Servers, runs[o], serverName, mergeServer); err != nil {
					return nil, err
				}
				runs[o] = runs[o][:0]
			}
		}
	}
	for i := range out.Shards {
		sh := &out.Shards[i]
		slices.SortFunc(sh.Buffer, func(a, b RecordEntry) int {
			return cmp.Or(cmp.Compare(a.T, b.T), strings.Compare(a.Server, b.Server), strings.Compare(a.Domain, b.Domain))
		})
		for j := range sh.Buffer {
			sh.Buffer[j].Seq = uint64(j)
		}
		sh.Seq = uint64(len(sh.Buffer))
	}
	return out, nil
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
