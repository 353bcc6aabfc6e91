package stream_test

import (
	"bytes"
	"maps"
	"path/filepath"
	"slices"
	"testing"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/estimators"
	"botmeter/internal/experiments"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// TestCrossEpochDomainKeys: a checkpoint keeps a server's domains as
// (epoch, position) keys, and one name is not one key. Necurs regenerates its
// pool every four epochs, so epochs 0–3 share one pool and every name of it
// sits at the same position in four epochs' matchers. Over such a trace:
//
//	(a) one engine keeps one key per name, the earliest epoch's, and its
//	    DistinctDomains are core.Analyze's;
//	(b) two vantages that see the same servers and meet a name first in
//	    different epochs each export their own key for it; the merge keeps both, the
//	    restore keeps the smaller, and the landscape and the domain keys are
//	    the single engine's; a re-merge of the merged state is a fixed point;
//	(c) an engine killed with its last checkpoint cut just before the epoch
//	    boundary resumes to the bytes of the uninterrupted engine.
func TestCrossEpochDomainKeys(t *testing.T) {
	const (
		seed          = uint64(0x4EC5)
		reorderWindow = 5 * sim.Second
	)
	spec := experiments.ScaledSpec(dga.Necurs(), 0.05)
	delivered := chunkShuffle(synthTrace(t, spec, seed, 6, 3, 2), reorderWindow, sim.NewRNG(seed))
	matchers := core.NewEpochMatchers(nil, dga.NewPoolCache(spec.Pool, seed, nil))
	mkCfg := func(vantage string) stream.Config {
		return stream.Config{
			Core:          core.Config{Family: spec, Seed: seed, EpochLen: testEpochLen},
			Shards:        2,
			ReorderWindow: reorderWindow,
			Vantage:       vantage,
		}
	}

	// The trace must hold what the test is about: a server that meets a name
	// in epoch 0 and again in epoch 2, at the same position.
	firstEpoch := map[[2]string]int{}
	repeats := 0
	for _, rec := range delivered {
		epoch := int(rec.T / testEpochLen)
		if _, ok := matchers.For(epoch).Resolve(rec); !ok {
			continue
		}
		k := [2]string{rec.Server, rec.Domain}
		first, seen := firstEpoch[k]
		if !seen || epoch < first {
			firstEpoch[k] = epoch
		}
		if seen && first == 0 && epoch == 2 {
			repeats++
		}
	}
	if repeats == 0 {
		t.Fatal("no server meets a name in both epoch 0 and epoch 2")
	}

	// exportKeys returns every server's exported domain keys.
	exportKeys := func(st *stream.EngineState) map[string][]stream.DomainKey {
		out := map[string][]stream.DomainKey{}
		for _, sh := range st.Shards {
			for _, sv := range sh.Servers {
				out[sv.Name] = sv.Domains
			}
		}
		return out
	}

	t.Run("one engine", func(t *testing.T) {
		eng, err := stream.New(mkCfg(""))
		if err != nil {
			t.Fatalf("stream.New: %v", err)
		}
		defer eng.Kill()
		for _, rec := range delivered {
			if err := eng.Observe(rec); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
		st, err := eng.ExportState()
		if err != nil {
			t.Fatalf("ExportState: %v", err)
		}
		// One key per name, at the earliest epoch the server met it in.
		checkCut(t, st, delivered, matchers, spec.MaxDuration())
		land, err := eng.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		requireEqualLandscapes(t, runBatch(t, mkCfg("").Core, delivered), land)
	})

	t.Run("two vantages share the servers", func(t *testing.T) {
		// Both vantages see every server: the first epoch 0, the second
		// epoch 1, and they split epoch 2 record by record. MB keeps a set
		// per cell, so the shared epoch-2 cells merge exactly.
		cfgFor := func(vantage string) stream.Config {
			cfg := mkCfg(vantage)
			cfg.Core.Estimators = []estimators.Estimator{estimators.NewBernoulli()}
			return cfg
		}
		parts := make([]trace.Observed, 2)
		for i, rec := range delivered {
			switch epoch := int(rec.T / testEpochLen); epoch {
			case 0, 1:
				parts[epoch] = append(parts[epoch], rec)
			default:
				parts[i%2] = append(parts[i%2], rec)
			}
		}
		stA, _ := runVantage(t, cfgFor("early"), parts[0])
		stB, _ := runVantage(t, cfgFor("late"), parts[1])
		merged, err := stream.MergeStates(stA, stB)
		if err != nil {
			t.Fatalf("MergeStates: %v", err)
		}
		// The merge keeps a name the vantages met first in different epochs
		// under both keys.
		dupes := 0
		for _, keys := range exportKeys(merged) {
			names := map[string]bool{}
			for _, k := range keys {
				name := matchers.For(k.Epoch()).Name(k.Pos())
				if names[name] {
					dupes++
				}
				names[name] = true
			}
		}
		if dupes == 0 {
			t.Fatal("no name is under two keys in the merged state")
		}

		ref, err := stream.New(cfgFor(""))
		if err != nil {
			t.Fatalf("stream.New(reference): %v", err)
		}
		defer ref.Kill()
		for _, rec := range delivered {
			if err := ref.Observe(rec); err != nil {
				t.Fatalf("Observe(reference): %v", err)
			}
		}
		refState, err := ref.ExportState()
		if err != nil {
			t.Fatalf("ExportState(reference): %v", err)
		}

		// Restored, the duplicates collapse to the smaller key: the single
		// engine's.
		restored, err := stream.Restore(cfgFor(""), merged)
		if err != nil {
			t.Fatalf("Restore(merged): %v", err)
		}
		defer restored.Kill()
		restoredState, err := restored.ExportState()
		if err != nil {
			t.Fatalf("ExportState(restored): %v", err)
		}
		if !maps.EqualFunc(exportKeys(refState), exportKeys(restoredState), slices.Equal) {
			t.Fatal("the restored merge holds other domain keys than the single engine")
		}

		_, mergedJSON, _ := quiescedLandscape(t, cfgFor(""), merged)
		if err := ref.Quiesce(); err != nil {
			t.Fatalf("Quiesce(reference): %v", err)
		}
		refJSON, err := ref.LandscapeJSON()
		if err != nil {
			t.Fatalf("LandscapeJSON(reference): %v", err)
		}
		if !bytes.Equal(mergedJSON, refJSON) {
			t.Fatalf("merged landscape differs from the single engine's:\nsingle %s\nmerged %s", refJSON, mergedJSON)
		}

		// Re-merging the merged state, keys and all, changes nothing.
		again, err := stream.MergeStates(merged)
		if err != nil {
			t.Fatalf("MergeStates(merged): %v", err)
		}
		mb, err := stream.EncodeCheckpoint(merged)
		if err != nil {
			t.Fatalf("EncodeCheckpoint: %v", err)
		}
		ab, err := stream.EncodeCheckpoint(again)
		if err != nil {
			t.Fatalf("EncodeCheckpoint: %v", err)
		}
		if !bytes.Equal(mb, ab) {
			t.Fatal("re-merge of the merged state changed its bytes")
		}
	})

	t.Run("kill-resume before the boundary", func(t *testing.T) {
		cfg := mkCfg("")
		// The cut: every record before the first of epoch 2.
		cut := 0
		for cut < len(delivered) && delivered[cut].T < 2*testEpochLen {
			cut++
		}
		dir := t.TempDir()
		source := writeJSONL(t, filepath.Join(dir, "observed.jsonl"), delivered)
		eng, err := stream.New(cfg)
		if err != nil {
			t.Fatalf("stream.New: %v", err)
		}
		ck, err := stream.NewCheckpointer(stream.CheckpointConfig{Dir: filepath.Join(dir, "ckpt"), Source: source})
		if err != nil {
			t.Fatalf("NewCheckpointer: %v", err)
		}
		for _, rec := range delivered[:cut] {
			if err := eng.Observe(rec); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
		if err := ck.Checkpoint(eng, uint64(cut)); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		eng.Kill()
		if err := ck.Close(); err != nil {
			t.Fatalf("checkpointer close: %v", err)
		}
		resumed, info := resume(t, cfg, filepath.Join(dir, "ckpt"), source, nil)
		defer resumed.Kill()
		if !info.Found || info.Records != uint64(cut) {
			t.Fatalf("recovered %+v, want the cut at record %d", info, cut)
		}

		ref, err := stream.New(cfg)
		if err != nil {
			t.Fatalf("stream.New(reference): %v", err)
		}
		defer ref.Kill()
		for _, rec := range delivered {
			if err := ref.Observe(rec); err != nil {
				t.Fatalf("Observe(reference): %v", err)
			}
		}
		_, want := exportBytes(t, ref)
		_, got := exportBytes(t, resumed)
		if !bytes.Equal(got, want) {
			t.Fatal("the engine resumed from the cut before epoch 2 exports other bytes than the uninterrupted one")
		}
		wantLand, err := ref.Close()
		if err != nil {
			t.Fatalf("Close(reference): %v", err)
		}
		gotLand, err := resumed.Close()
		if err != nil {
			t.Fatalf("Close(resumed): %v", err)
		}
		if !bytes.Equal(landscapeBytes(t, gotLand), landscapeBytes(t, wantLand)) {
			t.Fatal("resumed landscape differs from the uninterrupted one")
		}
	})
}

// TestDistinctDomainsDifferential holds core.Analyze's distinct-domain count
// to the set it counts: per server, the canonical names its matched records
// resolve to, collected record by record into a set. Over the
// TestBatchStreamEquivalence traces, over a Necurs trace (its pool repeats
// for four epochs, so one name sits at one position in several epochs) and
// over a Ranbyus trace of one name met in two epochs at two positions (its
// sliding window shifts a day's block down the pool).
func TestDistinctDomainsDifferential(t *testing.T) {
	const seed = uint64(0xB07)
	check := func(t *testing.T, spec dga.Spec, recs trace.Observed) {
		t.Helper()
		bm, err := core.New(core.Config{Family: spec, Seed: seed, EpochLen: testEpochLen})
		if err != nil {
			t.Fatal(err)
		}
		w := analysisWindow(recs, testEpochLen)
		want := map[string]map[string]bool{}
		for _, rec := range recs {
			m := bm.Matcher(int(rec.T / testEpochLen))
			pos, ok := m.Resolve(rec)
			if !ok || !w.Contains(rec.T) {
				continue
			}
			if want[rec.Server] == nil {
				want[rec.Server] = map[string]bool{}
			}
			want[rec.Server][m.Name(pos)] = true
		}
		land, err := bm.Analyze(recs, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(land.Servers) != len(want) || len(want) == 0 {
			t.Fatalf("%d servers charted, %d with matched records", len(land.Servers), len(want))
		}
		for _, sv := range land.Servers {
			if got, w := sv.DistinctDomains, len(want[sv.Server]); got != w {
				t.Fatalf("%s: %d distinct domains, the record-by-record set holds %d", sv.Server, got, w)
			}
		}
	}
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			check(t, tc.spec, synthTrace(t, tc.spec, seed, 20, 3, tc.activations))
		})
	}
	t.Run("necurs", func(t *testing.T) {
		spec := experiments.ScaledSpec(dga.Necurs(), 0.05)
		check(t, spec, synthTrace(t, spec, seed, 6, 3, 2))
	})
	t.Run("ranbyus-shifted", func(t *testing.T) {
		spec := experiments.ScaledSpec(dga.Ranbyus(), 0.1)
		p0, p1 := spec.Pool.PoolFor(seed, 0), spec.Pool.PoolFor(seed, 1)
		name := p1.Domains[0]
		i0, in0 := p0.Position(name)
		if !in0 || i0 == 0 {
			t.Fatalf("%q is at %d, %v in epoch 0's pool: want a shifted position", name, i0, in0)
		}
		recs := trace.Observed{
			{T: 10, Server: "local-a", Domain: name},
			{T: 20, Server: "local-a", Domain: p0.Domains[1]},
			{T: testEpochLen + 10, Server: "local-a", Domain: name},
			{T: testEpochLen + 20, Server: "local-a", Domain: name},
		}
		check(t, spec, recs)
		land := runBatch(t, core.Config{Family: spec, Seed: seed, EpochLen: testEpochLen}, recs)
		if got := land.Servers[0].DistinctDomains; got != 2 {
			t.Fatalf("distinct domains %d, want 2", got)
		}
	})
}
