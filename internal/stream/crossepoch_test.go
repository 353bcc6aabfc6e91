package stream_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/estimators"
	"botmeter/internal/experiments"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// TestRepeatingPoolDifferential runs the differentials over a pool that
// repeats across epochs. Necurs regenerates its pool every four epochs, so
// epochs 0–3 share one pool and every name of it sits at the same position
// in four epochs' matchers. Over such a trace:
//
//	(a) one engine's cut holds TestExportInvariants' invariants, and its
//	    landscape is core.Analyze's;
//	(b) two vantages that see the same servers and meet a name first in
//	    different epochs merge to the single engine's landscape, and a
//	    re-merge of the merged state is a fixed point;
//	(c) an engine killed with its last checkpoint cut just before the epoch
//	    boundary resumes to the bytes of the uninterrupted engine.
func TestRepeatingPoolDifferential(t *testing.T) {
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

		// Re-merging the merged state changes nothing.
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
