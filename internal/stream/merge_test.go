package stream_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/estimators"
	"botmeter/internal/faults"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// The N-way merge differential (DESIGN.md §18): partition a trace across N
// vantage engines by forwarding server, merge their exported states, and
// the coordinator's landscape must be byte-identical to a single engine
// that saw every record — for every estimator family, vantage count and
// shard count, under -race.

// vantageOf assigns a forwarding server to one of n vantages (FNV-1a) —
// a server-disjoint partition, the paper's deployment shape where each
// border server forwards to exactly one collection point.
func vantageOf(server string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(server))
	return int(h.Sum32() % uint32(n))
}

// partitionByServer splits delivered into n server-disjoint subsequences,
// each preserving the original delivery order.
func partitionByServer(delivered trace.Observed, n int) []trace.Observed {
	parts := make([]trace.Observed, n)
	for _, rec := range delivered {
		i := vantageOf(rec.Server, n)
		parts[i] = append(parts[i], rec)
	}
	return parts
}

// runVantage feeds one vantage's records into its own engine and exports
// its state without closing epochs — the live-snapshot path a federation
// pulls. The engine is killed afterwards; only the state survives.
func runVantage(tb testing.TB, cfg stream.Config, part trace.Observed) (*stream.EngineState, stream.Stats) {
	tb.Helper()
	eng, err := stream.New(cfg)
	if err != nil {
		tb.Fatalf("stream.New(%s): %v", cfg.Vantage, err)
	}
	defer eng.Kill()
	for _, rec := range part {
		if err := eng.Observe(rec); err != nil {
			tb.Fatalf("Observe(%s): %v", cfg.Vantage, err)
		}
	}
	st, err := eng.ExportState()
	if err != nil {
		tb.Fatalf("ExportState(%s): %v", cfg.Vantage, err)
	}
	return st, eng.Stats()
}

// quiescedLandscape restores a merged state into a coordinator engine,
// quiesces it (every buffered record emitted, watermarks caught up) and
// returns both the typed snapshot and the serialized /landscape payload.
func quiescedLandscape(tb testing.TB, cfg stream.Config, st *stream.EngineState) (*core.Landscape, []byte, stream.Stats) {
	tb.Helper()
	cfg.Shards = 0 // adopt the merged state's shard count
	eng, err := stream.Restore(cfg, st)
	if err != nil {
		tb.Fatalf("Restore(merged): %v", err)
	}
	defer eng.Kill()
	if err := eng.Quiesce(); err != nil {
		tb.Fatalf("Quiesce: %v", err)
	}
	land, err := eng.Snapshot()
	if err != nil {
		tb.Fatalf("Snapshot: %v", err)
	}
	payload, err := eng.LandscapeJSON()
	if err != nil {
		tb.Fatalf("LandscapeJSON: %v", err)
	}
	return land, payload, eng.Stats()
}

// TestNWayMergeDifferential: for vantage counts {1, 2, 5} × shards {1, 4}
// × every estimator family, the merged snapshot must match the batch
// landscape and be byte-identical — /landscape payload included, ingest
// block and all — to a single engine that ingested the union, treated
// through the identical export-free Quiesce path. Vantage engines are fed
// concurrently, so -race covers the federation's real parallelism.
func TestNWayMergeDifferential(t *testing.T) {
	const (
		seed          = uint64(0x9E7)
		servers       = 20
		epochs        = 3
		reorderWindow = 5 * sim.Second
	)
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			base := synthTrace(t, tc.spec, seed, servers, epochs, tc.activations)
			delivered := chunkShuffle(base, reorderWindow, sim.NewRNG(seed+1))
			for _, vantages := range []int{1, 2, 5} {
				for _, shards := range []int{1, 4} {
					vantages, shards := vantages, shards
					t.Run(fmt.Sprintf("vantages=%d/shards=%d", vantages, shards), func(t *testing.T) {
						coreCfg := core.Config{
							Family:        tc.spec,
							Seed:          seed,
							EpochLen:      testEpochLen,
							SecondOpinion: tc.secondOpinion,
						}
						if tc.estimators != nil {
							coreCfg.Estimators = tc.estimators()
						}
						mkCfg := func(vantage string) stream.Config {
							cfg := stream.Config{
								Core:          coreCfg,
								Shards:        shards,
								ReorderWindow: reorderWindow,
								Vantage:       vantage,
							}
							if tc.estimators != nil {
								cfg.Core.Estimators = tc.estimators()
							}
							return cfg
						}

						// N vantage engines ingest their server-disjoint
						// partitions concurrently.
						parts := partitionByServer(delivered, vantages)
						states := make([]*stream.EngineState, vantages)
						stats := make([]stream.Stats, vantages)
						var wg sync.WaitGroup
						for v := 0; v < vantages; v++ {
							v := v
							wg.Add(1)
							go func() {
								defer wg.Done()
								states[v], stats[v] = runVantage(t, mkCfg(fmt.Sprintf("vantage-%d", v)), parts[v])
							}()
						}
						wg.Wait()
						if t.Failed() {
							t.FailNow()
						}

						merged, err := stream.MergeStates(states...)
						if err != nil {
							t.Fatalf("MergeStates: %v", err)
						}
						if got := len(merged.Vantages); got != vantages {
							t.Fatalf("merged state names %d vantages, want %d", got, vantages)
						}
						mergedLand, mergedJSON, mergedStats := quiescedLandscape(t, mkCfg(""), merged)

						// Reference: one engine over the union, same shard
						// count, same Quiesce treatment.
						ref, err := stream.New(mkCfg(""))
						if err != nil {
							t.Fatalf("stream.New(reference): %v", err)
						}
						for _, rec := range delivered {
							if err := ref.Observe(rec); err != nil {
								t.Fatalf("Observe(reference): %v", err)
							}
						}
						if err := ref.Quiesce(); err != nil {
							t.Fatalf("Quiesce(reference): %v", err)
						}
						refJSON, err := ref.LandscapeJSON()
						if err != nil {
							t.Fatalf("LandscapeJSON(reference): %v", err)
						}
						refStats := ref.Stats()
						ref.Kill()

						if !bytes.Equal(mergedJSON, refJSON) {
							t.Fatalf("merged /landscape differs from single-engine:\nsingle %s\nmerged %s", refJSON, mergedJSON)
						}

						// The merged snapshot must also match the batch
						// reference over the delivered records.
						requireEqualLandscapes(t, runBatch(t, coreCfg, delivered), mergedLand)

						// Ingest tallies must sum exactly across vantages
						// and agree with the single engine (the partition
						// was loss-free by construction).
						var sum stream.Stats
						for _, s := range stats {
							sum.Ingested += s.Ingested
							sum.Matched += s.Matched
							sum.Unmatched += s.Unmatched
							sum.DroppedLate += s.DroppedLate
							sum.ReorderEvictions += s.ReorderEvictions
						}
						if sum.DroppedLate != 0 || sum.ReorderEvictions != 0 {
							t.Fatalf("vantage delivery was supposed to be loss-free: %d late, %d evicted",
								sum.DroppedLate, sum.ReorderEvictions)
						}
						if sum.Ingested != uint64(len(delivered)) {
							t.Fatalf("vantages ingested %d of %d records", sum.Ingested, len(delivered))
						}
						for _, cmp := range []struct {
							name       string
							merged, at uint64
						}{
							{"ingested", mergedStats.Ingested, sum.Ingested},
							{"matched", mergedStats.Matched, sum.Matched},
							{"unmatched", mergedStats.Unmatched, sum.Unmatched},
							{"dropped_late", mergedStats.DroppedLate, sum.DroppedLate},
							{"reorder_evictions", mergedStats.ReorderEvictions, sum.ReorderEvictions},
						} {
							if cmp.merged != cmp.at {
								t.Fatalf("merged %s = %d, vantage sum %d", cmp.name, cmp.merged, cmp.at)
							}
							_ = refStats
						}
						if mergedStats.Matched != refStats.Matched || mergedStats.Unmatched != refStats.Unmatched {
							t.Fatalf("merged match split (%d/%d) differs from single engine (%d/%d)",
								mergedStats.Matched, mergedStats.Unmatched, refStats.Matched, refStats.Unmatched)
						}

						// Canonical idempotence: re-merging the merged state
						// must be byte-identical (the Merger re-merge path).
						again, err := stream.MergeStates(merged)
						if err != nil {
							t.Fatalf("MergeStates(merged): %v", err)
						}
						ab, err := stream.EncodeCheckpoint(merged)
						if err != nil {
							t.Fatalf("EncodeCheckpoint(merged): %v", err)
						}
						bb, err := stream.EncodeCheckpoint(again)
						if err != nil {
							t.Fatalf("EncodeCheckpoint(again): %v", err)
						}
						if !bytes.Equal(ab, bb) {
							t.Fatal("MergeStates is not idempotent on its own output")
						}
					})
				}
			}
		})
	}
}

// TestNWayMergeKillResume: one vantage dies mid-checkpoint-write
// (faults.Crasher at the same injection point the single-engine crash
// tests use), recovers from its newest good checkpoint, replays its own
// partition — and the subsequent N-way merge must still be byte-identical
// to the uninterrupted single engine.
func TestNWayMergeKillResume(t *testing.T) {
	const (
		seed            = uint64(0xFEED)
		reorderWindow   = 5 * sim.Second
		checkpointEvery = 97
		vantages        = 2
	)
	tc := diffCases()[0] // MP + second opinion: records AND both MT streams
	delivered := chunkShuffle(synthTrace(t, tc.spec, seed, 12, 3, tc.activations), reorderWindow, sim.NewRNG(seed))
	mkCfg := func(vantage string) stream.Config {
		return stream.Config{
			Core:          core.Config{Family: tc.spec, Seed: seed, EpochLen: testEpochLen, SecondOpinion: tc.secondOpinion},
			Shards:        2,
			ReorderWindow: reorderWindow,
			Vantage:       vantage,
		}
	}

	// Reference: one engine over the union, quiesced like the coordinator.
	ref, err := stream.New(mkCfg(""))
	if err != nil {
		t.Fatalf("stream.New(reference): %v", err)
	}
	for _, rec := range delivered {
		if err := ref.Observe(rec); err != nil {
			t.Fatalf("Observe(reference): %v", err)
		}
	}
	if err := ref.Quiesce(); err != nil {
		t.Fatalf("Quiesce(reference): %v", err)
	}
	refJSON, err := ref.LandscapeJSON()
	if err != nil {
		t.Fatalf("LandscapeJSON(reference): %v", err)
	}
	ref.Kill()

	parts := partitionByServer(delivered, vantages)

	// Vantage 0 runs clean.
	cleanState, _ := runVantage(t, mkCfg("vantage-0"), parts[0])

	// Vantage 1 crashes while WRITING a checkpoint, recovers from the
	// newest good generation, and replays the rest of its partition.
	dir := t.TempDir()
	source := writeJSONL(t, filepath.Join(t.TempDir(), "obs.jsonl"), parts[1])
	crash := faults.NewCrasher(faults.CrashSpec{Point: "checkpoint-write", PointNth: 2})
	type crashed struct{ reason string }
	crash.Die = func(reason string) { panic(crashed{reason}) }
	cfg1 := mkCfg("vantage-1")
	eng, err := stream.New(cfg1)
	if err != nil {
		t.Fatalf("stream.New(vantage-1): %v", err)
	}
	ck, err := stream.NewCheckpointer(stream.CheckpointConfig{Dir: dir, EveryRecords: checkpointEvery, Crash: crash, Source: source})
	if err != nil {
		t.Fatalf("NewCheckpointer: %v", err)
	}
	died := func() (died bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashed); !ok {
					panic(r)
				}
				died = true
			}
		}()
		trig := ck.NewTrigger(1)
		for i, rec := range parts[1] {
			if err := eng.Observe(rec); err != nil {
				t.Fatalf("Observe(vantage-1): %v", err)
			}
			if now := time.Now(); trig.Tick(now) {
				trig.Rearm(now)
				if err := ck.Try(eng, uint64(i+1)); err != nil {
					t.Fatalf("Try: %v", err)
				}
			}
		}
		return false
	}()
	if !died {
		t.Fatalf("crash point never fired (partition shorter than %d records?)", 2*checkpointEvery)
	}
	eng.Kill()

	resumed, info := resume(t, cfg1, dir, source, nil)
	if !info.Found {
		t.Fatal("expected a completed checkpoint generation to recover from")
	}
	resumedState, err := resumed.ExportState()
	if err != nil {
		t.Fatalf("ExportState(vantage-1 resume): %v", err)
	}
	resumed.Kill()
	if got := resumedState.Vantages; len(got) != 1 || got[0] != "vantage-1" {
		t.Fatalf("resumed vantage identity = %v, want [vantage-1]", got)
	}

	merged, err := stream.MergeStates(cleanState, resumedState)
	if err != nil {
		t.Fatalf("MergeStates: %v", err)
	}
	_, mergedJSON, _ := quiescedLandscape(t, mkCfg(""), merged)
	if !bytes.Equal(mergedJSON, refJSON) {
		t.Fatalf("merged /landscape differs after kill–resume:\nsingle %s\nmerged %s", refJSON, mergedJSON)
	}
}

// TestMergeSameServerOpenCellsMB: MB's sufficient statistic is a SET of
// (bucket, position) pairs, so its merge is exact under ANY record
// partition — not just the server-disjoint one. Deal one epoch of records
// round-robin across two vantages (every server split across both), so
// the merge must fold the same server's open cells through the estimator
// Merge, and the quiesced landscape must still match a single engine.
func TestMergeSameServerOpenCellsMB(t *testing.T) {
	tc := diffCases()[1] // MB-newgoz: set semantics, no second opinion
	const seed = uint64(0x5E7)
	delivered := chunkShuffle(synthTrace(t, tc.spec, seed, 8, 1, tc.activations), 5*sim.Second, sim.NewRNG(seed))
	mkCfg := func(vantage string) stream.Config {
		return stream.Config{
			Core:          core.Config{Family: tc.spec, Seed: seed, EpochLen: testEpochLen},
			Shards:        2,
			ReorderWindow: 5 * sim.Second,
			Vantage:       vantage,
		}
	}
	parts := make([]trace.Observed, 2)
	for i, rec := range delivered {
		parts[i%2] = append(parts[i%2], rec)
	}
	stA, _ := runVantage(t, mkCfg("split-a"), parts[0])
	stB, _ := runVantage(t, mkCfg("split-b"), parts[1])
	merged, err := stream.MergeStates(stA, stB)
	if err != nil {
		t.Fatalf("MergeStates: %v", err)
	}
	_, mergedJSON, _ := quiescedLandscape(t, mkCfg(""), merged)

	ref, err := stream.New(mkCfg(""))
	if err != nil {
		t.Fatalf("stream.New(reference): %v", err)
	}
	defer ref.Kill()
	for _, rec := range delivered {
		if err := ref.Observe(rec); err != nil {
			t.Fatalf("Observe(reference): %v", err)
		}
	}
	if err := ref.Quiesce(); err != nil {
		t.Fatalf("Quiesce(reference): %v", err)
	}
	refJSON, err := ref.LandscapeJSON()
	if err != nil {
		t.Fatalf("LandscapeJSON(reference): %v", err)
	}
	if !bytes.Equal(mergedJSON, refJSON) {
		t.Fatalf("record-partitioned MB merge differs from single engine:\nsingle %s\nmerged %s", refJSON, mergedJSON)
	}
}

// TestMergeStatesWatermark: a merge carries each shard's header over. One
// exported state merges to its own header — Seq apart, which the merge
// renumbers with the reorder buffer — and two vantages merge, shard by
// shard, to the smaller of their watermarks, never to none.
func TestMergeStatesWatermark(t *testing.T) {
	tc := diffCases()[0]
	const seed = uint64(0x3A7E)
	delivered := chunkShuffle(synthTrace(t, tc.spec, seed, 24, 2, tc.activations), 5*sim.Second, sim.NewRNG(seed))
	mkCfg := func(vantage string) stream.Config {
		return stream.Config{
			Core:          core.Config{Family: tc.spec, Seed: seed, EpochLen: testEpochLen, SecondOpinion: tc.secondOpinion},
			Shards:        2,
			ReorderWindow: 5 * sim.Second,
			Vantage:       vantage,
		}
	}
	// Servers split one third to two thirds: halves by the FNV hash would
	// be the shard hash's halves too, and leave each vantage a shard with
	// no watermark.
	var parts [2]trace.Observed
	for _, rec := range delivered {
		v := min(vantageOf(rec.Server, 3), 1)
		parts[v] = append(parts[v], rec)
	}
	stA, _ := runVantage(t, mkCfg("wm-a"), parts[0])
	stB, _ := runVantage(t, mkCfg("wm-b"), parts[1])
	header := func(sh stream.ShardState) stream.ShardState {
		sh.Seq, sh.Buffer, sh.Servers = 0, nil, nil
		return sh
	}

	one, err := stream.MergeStates(stA)
	if err != nil {
		t.Fatalf("MergeStates(one): %v", err)
	}
	for i, sh := range one.Shards {
		if got, want := header(sh), header(stA.Shards[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: merged header %+v, want the input's %+v", i, got, want)
		}
	}

	both, err := stream.MergeStates(stA, stB)
	if err != nil {
		t.Fatalf("MergeStates(two): %v", err)
	}
	for i, sh := range both.Shards {
		a, b := stA.Shards[i].Watermark, stB.Shards[i].Watermark
		if a == math.MinInt64 || b == math.MinInt64 || a == b {
			t.Fatalf("shard %d: input watermarks %d and %d; the test needs two distinct ones", i, a, b)
		}
		if want := min(a, b); sh.Watermark != want {
			t.Fatalf("shard %d: merged watermark %d, want %d, the smaller of %d and %d", i, sh.Watermark, want, a, b)
		}
	}
}

// TestMergeSharesNoMemory: a landscape-server restores the merged state,
// quiesces it and goes on ingesting, while its Merger keeps the inputs to
// merge again on the next refresh. Neither may see the other's writes: after
// the merged engine has run and the merged state is scribbled over, each
// input still encodes to its bytes from before the merge, and merging them
// again gives the first merge's bytes.
func TestMergeSharesNoMemory(t *testing.T) {
	const seed = uint64(0x5A4E)
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			mkCfg := func(vantage string) stream.Config {
				cfg := stream.Config{
					Core:          core.Config{Family: tc.spec, Seed: seed, EpochLen: testEpochLen, SecondOpinion: tc.secondOpinion},
					Shards:        2,
					ReorderWindow: 5 * sim.Second,
					Vantage:       vantage,
				}
				if tc.estimators != nil {
					cfg.Core.Estimators = tc.estimators()
				}
				return cfg
			}
			delivered := synthTrace(t, tc.spec, seed, 8, 3, tc.activations)
			cut := len(delivered) * 2 / 3
			parts := partitionByServer(delivered[:cut], 2)
			stA, _ := runVantage(t, mkCfg("share-a"), parts[0])
			stB, _ := runVantage(t, mkCfg("share-b"), parts[1])
			encode := func(st *stream.EngineState) []byte {
				frame, err := stream.EncodeCheckpoint(st)
				if err != nil {
					t.Fatalf("EncodeCheckpoint: %v", err)
				}
				return frame
			}
			wantA, wantB := encode(stA), encode(stB)
			merged, err := stream.MergeStates(stA, stB)
			if err != nil {
				t.Fatalf("MergeStates: %v", err)
			}
			first := encode(merged)

			cfg := mkCfg("")
			cfg.Shards = 0
			eng, err := stream.Restore(cfg, merged)
			if err != nil {
				t.Fatalf("Restore(merged): %v", err)
			}
			if err := eng.Quiesce(); err != nil {
				t.Fatalf("Quiesce: %v", err)
			}
			for _, rec := range delivered[cut:] {
				if err := eng.Observe(rec); err != nil {
					t.Fatalf("Observe: %v", err)
				}
			}
			if _, err := eng.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			scribble(merged)

			if !bytes.Equal(encode(stA), wantA) || !bytes.Equal(encode(stB), wantB) {
				t.Fatal("an input changed after its merge output was restored, run and overwritten")
			}
			again, err := stream.MergeStates(stA, stB)
			if err != nil {
				t.Fatalf("MergeStates (again): %v", err)
			}
			if !bytes.Equal(encode(again), first) {
				t.Fatal("re-merging the inputs does not give the first merge's bytes")
			}
		})
	}
}

// scribble overwrites every number and name a state's servers hold.
func scribble(st *stream.EngineState) {
	for _, sh := range st.Shards {
		for i := range sh.Buffer {
			sh.Buffer[i].Domain = "scribbled"
		}
		for _, ss := range sh.Servers {
			for _, ev := range ss.Closed {
				for i := range ev.Values {
					ev.Values[i] = -1
				}
			}
			for _, cs := range ss.Open {
				for _, es := range cs.States {
					if ts := es.Timing; ts != nil {
						for _, cand := range ts.Active {
							for i := range cand.Domains {
								cand.Domains[i] = "scribbled"
							}
						}
					}
					if cl := es.Clusters; cl != nil {
						for i := range cl.Done {
							cl.Done[i].Count = -1
						}
						if cl.Cur != nil {
							cl.Cur.Count = -1
						}
					}
					if bs := es.Bernoulli; bs != nil {
						for _, bk := range bs.Buckets {
							for i := range bk.Positions {
								bk.Positions[i] = -1
							}
						}
					}
				}
			}
		}
	}
}

// TestMergeRejectsDuplicateVantage: folding two snapshots that claim the
// same vantage is a typed error, not a silent double-count.
func TestMergeRejectsDuplicateVantage(t *testing.T) {
	tc := diffCases()[1]
	trc := synthTrace(t, tc.spec, 11, 4, 2, tc.activations)
	cfg := stream.Config{
		Core:    core.Config{Family: tc.spec, Seed: 11, EpochLen: testEpochLen},
		Shards:  1,
		Vantage: "border-a",
	}
	eng, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	defer eng.Kill()
	for _, rec := range trc {
		if err := eng.Observe(rec); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	a, err := eng.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	b, err := eng.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	_, err = stream.MergeStates(a, b)
	var dup *stream.DuplicateVantageError
	if !errors.As(err, &dup) {
		t.Fatalf("MergeStates(same vantage twice) = %v, want DuplicateVantageError", err)
	}
	if dup.Vantage != "border-a" {
		t.Fatalf("duplicate vantage = %q, want border-a", dup.Vantage)
	}
}

// TestMergerIdempotentRefresh: Merger replaces a vantage's snapshot on
// Update, so pulling the same (unchanged) vantage snapshot again and
// re-merging yields byte-identical state — the coordinator's pull loop
// needs no change detection to stay correct.
func TestMergerIdempotentRefresh(t *testing.T) {
	tc := diffCases()[0]
	delivered := synthTrace(t, tc.spec, 23, 8, 2, tc.activations)
	parts := partitionByServer(delivered, 2)
	mkCfg := func(vantage string) stream.Config {
		return stream.Config{
			Core:    core.Config{Family: tc.spec, Seed: 23, EpochLen: testEpochLen, SecondOpinion: tc.secondOpinion},
			Shards:  1,
			Vantage: vantage,
		}
	}
	st0, _ := runVantage(t, mkCfg("v0"), parts[0])
	st1, _ := runVantage(t, mkCfg("v1"), parts[1])

	m := stream.NewMerger()
	for _, st := range []*stream.EngineState{st0, st1} {
		if err := m.Update(st); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	if got := m.Vantages(); len(got) != 2 || got[0] != "v0" || got[1] != "v1" {
		t.Fatalf("Vantages() = %v", got)
	}
	if got := m.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
	first, err := m.Merged()
	if err != nil {
		t.Fatalf("Merged: %v", err)
	}
	// The same vantage snapshot arrives again (an unchanged pull).
	if err := m.Update(st0); err != nil {
		t.Fatalf("Update (refresh): %v", err)
	}
	second, err := m.Merged()
	if err != nil {
		t.Fatalf("Merged (after refresh): %v", err)
	}
	fb, err := stream.EncodeCheckpoint(first)
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	sb, err := stream.EncodeCheckpoint(second)
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	if !bytes.Equal(fb, sb) {
		t.Fatal("re-merge after an idempotent refresh changed the merged state")
	}

	// A snapshot with a different analysis fingerprint is refused with the
	// typed error /healthz surfaces.
	otherCfg := mkCfg("v2")
	otherCfg.Core.Seed = 99
	stBad, _ := runVantage(t, otherCfg, nil)
	err = m.Update(stBad)
	var mismatch *stream.FingerprintMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("Update(different seed) = %v, want FingerprintMismatchError", err)
	}

	// Anonymous snapshots (no Config.Vantage) cannot be tracked.
	stAnon, _ := runVantage(t, stream.Config{
		Core: core.Config{Family: tc.spec, Seed: 23, EpochLen: testEpochLen, SecondOpinion: tc.secondOpinion}, Shards: 1,
	}, nil)
	if err := m.Update(stAnon); err == nil {
		t.Fatal("Update accepted a snapshot with no vantage name")
	}
}

// TestRestoreFingerprintMismatchTyped is the satellite-fix regression:
// Restore must return *FingerprintMismatchError naming the differing
// config fields, so the landscape-server can surface per-vantage WHICH
// knob diverged instead of a bare "fingerprint mismatch".
func TestRestoreFingerprintMismatchTyped(t *testing.T) {
	tc := diffCases()[1]
	cfg := stream.Config{
		Core:   core.Config{Family: tc.spec, Seed: 5, EpochLen: testEpochLen},
		Shards: 2,
	}
	eng, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	st, err := eng.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	eng.Kill()

	bad := cfg
	bad.Core.Seed = 6
	bad.ReorderWindow = 9 * sim.Second
	bad.Shards = 0
	_, err = stream.Restore(bad, st)
	var mismatch *stream.FingerprintMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("Restore = %v, want *FingerprintMismatchError", err)
	}
	diff := mismatch.Diff()
	if len(diff) != 2 {
		t.Fatalf("Diff() = %v, want exactly the two mutated fields", diff)
	}
	for _, want := range []string{"seed: checkpoint 5, engine 6", "reorder_window"} {
		found := false
		for _, d := range diff {
			if bytes.Contains([]byte(d), []byte(want)) {
				found = true
			}
		}
		if !found {
			t.Fatalf("Diff() = %v, missing %q", diff, want)
		}
	}
	for _, want := range []string{"seed", "reorder_window"} {
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("Error() = %q does not name field %q", err, want)
		}
	}
}

// TestMergeStatesErrors pins the validation surface: nil and empty
// inputs, malformed shard counts, and diverging analysis fingerprints
// are refused with errors a caller can show per-vantage.
func TestMergeStatesErrors(t *testing.T) {
	tc := diffCases()[1]
	mkState := func(mut func(*stream.Config)) *stream.EngineState {
		cfg := stream.Config{
			Core:    core.Config{Family: tc.spec, Seed: 3, EpochLen: testEpochLen},
			Shards:  1,
			Vantage: "a",
		}
		if mut != nil {
			mut(&cfg)
		}
		st, _ := runVantage(t, cfg, nil)
		return st
	}
	if _, err := stream.MergeStates(); err == nil {
		t.Fatal("MergeStates() with no inputs succeeded")
	}
	if _, err := stream.MergeStates(mkState(nil), nil); err == nil {
		t.Fatal("MergeStates with a nil input succeeded")
	}
	torn := mkState(nil)
	torn.Shards = torn.Shards[:0]
	if _, err := stream.MergeStates(torn); err == nil {
		t.Fatal("MergeStates accepted a state whose shard slice contradicts its fingerprint")
	}
	other := mkState(func(cfg *stream.Config) { cfg.Core.Seed = 4; cfg.Vantage = "b" })
	_, err := stream.MergeStates(mkState(nil), other)
	var mismatch *stream.FingerprintMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("MergeStates across seeds = %v, want FingerprintMismatchError", err)
	}

	// The typed errors render actionable messages.
	for _, check := range []struct{ msg, want string }{
		{(&stream.DuplicateVantageError{Vantage: "edge-9"}).Error(), "edge-9"},
		{(&stream.MergeConflictError{Server: "s1", Epoch: 4, Detail: "values differ"}).Error(), "s1"},
	} {
		if !strings.Contains(check.msg, check.want) {
			t.Fatalf("error %q does not mention %q", check.msg, check.want)
		}
	}
}

// TestConfigForStateEstimatorOverrides: every estimator name a fingerprint
// can carry reconstructs to an engine whose estimator matches — the
// coordinator must rebuild non-default choices faithfully.
func TestConfigForStateEstimatorOverrides(t *testing.T) {
	cases := []struct {
		name string
		spec dga.Spec // registry family whose DEFAULT differs from name
		est  func() estimators.Estimator
	}{
		{"MP", dga.NewGoZ(), func() estimators.Estimator { return estimators.NewPoisson() }},
		{"NC", dga.NewGoZ(), func() estimators.Estimator { return estimators.NewNaive() }},
		{"MB", dga.Murofet(), func() estimators.Estimator { return estimators.NewBernoulli() }},
		{"MB-C", dga.Murofet(), func() estimators.Estimator { return estimators.NewCoverage() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := stream.Config{
				Core:   core.Config{Family: tc.spec, Seed: 9, EpochLen: testEpochLen, Estimators: []estimators.Estimator{tc.est()}},
				Shards: 1,
			}
			eng, err := stream.New(cfg)
			if err != nil {
				t.Fatalf("stream.New: %v", err)
			}
			st, err := eng.ExportState()
			if err != nil {
				t.Fatalf("ExportState: %v", err)
			}
			eng.Kill()
			got, err := stream.ConfigForState(st)
			if err != nil {
				t.Fatalf("ConfigForState: %v", err)
			}
			restored, err := stream.Restore(got, st)
			if err != nil {
				t.Fatalf("Restore(reconstructed): %v", err)
			}
			if name := restored.EstimatorName(); name != tc.name {
				t.Fatalf("reconstructed estimator = %q, want %q", name, tc.name)
			}
			restored.Kill()

			unknown := *st
			unknown.Fingerprint.Estimators = "XX"
			if _, err := stream.ConfigForState(&unknown); err == nil {
				t.Fatal("ConfigForState accepted an unknown estimator name")
			}
			wrongModel := *st
			wrongModel.Fingerprint.Model = "bogus"
			if _, err := stream.ConfigForState(&wrongModel); err == nil {
				t.Fatal("ConfigForState accepted a model mismatch")
			}
		})
	}
	if _, err := stream.ConfigForState(nil); err == nil {
		t.Fatal("ConfigForState(nil) succeeded")
	}
}

// TestConfigForState: a fingerprint from a registry family round-trips to
// a working engine configuration — the coordinator's bootstrap path.
func TestConfigForState(t *testing.T) {
	spec := dga.Murofet()
	cfg := stream.Config{
		Core: core.Config{
			Family:     spec,
			Seed:       77,
			EpochLen:   sim.Day,
			Estimators: []estimators.Estimator{estimators.NewTiming()}, // non-default for a uniform barrel
		},
		Shards:  2,
		Vantage: "edge-1",
	}
	eng, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	st, err := eng.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	eng.Kill()

	got, err := stream.ConfigForState(st)
	if err != nil {
		t.Fatalf("ConfigForState: %v", err)
	}
	// The reconstructed config must restore cleanly — i.e. reproduce the
	// exact fingerprint, estimator choice included.
	restored, err := stream.Restore(got, st)
	if err != nil {
		t.Fatalf("Restore(reconstructed config): %v", err)
	}
	if name := restored.EstimatorName(); name != "MT" {
		t.Fatalf("reconstructed estimator = %q, want MT", name)
	}
	restored.Kill()

	unknown := *st
	unknown.Fingerprint.Family = "no-such-family"
	if _, err := stream.ConfigForState(&unknown); err == nil {
		t.Fatal("ConfigForState accepted an unregistered family")
	}
}
