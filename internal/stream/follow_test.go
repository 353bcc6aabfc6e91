package stream_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// followTrace writes a small synthetic capture to dir and returns its path
// plus the records it contains.
func followTrace(tb testing.TB, dir string) (string, trace.Observed) {
	tb.Helper()
	spec, _ := testConfig()
	recs := synthTrace(tb, spec, 7, 3, 2, 2)
	return writeJSONL(tb, filepath.Join(dir, "obs.jsonl"), recs), recs
}

// TestFollowFileOneShot: FollowFile over a finished capture must chart it
// exactly as the batch pipeline does.
func TestFollowFileOneShot(t *testing.T) {
	_, coreCfg := testConfig()
	path, recs := followTrace(t, t.TempDir())
	eng, err := stream.New(stream.Config{Core: coreCfg})
	if err != nil {
		t.Fatal(err)
	}
	if name := eng.EstimatorName(); name == "" {
		t.Error("EstimatorName is empty")
	}
	res, err := eng.FollowFile(context.Background(), path, stream.FollowOptions{})
	if err != nil {
		t.Fatalf("FollowFile: %v", err)
	}
	if res.Records != len(recs) {
		t.Errorf("followed %d records, trace has %d", res.Records, len(recs))
	}
	got, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualLandscapes(t, runBatch(t, coreCfg, recs), got)
}

// TestFollowFileMissing: a nonexistent path fails up front, in both live
// and one-shot modes.
func TestFollowFileMissing(t *testing.T) {
	_, coreCfg := testConfig()
	eng, err := stream.New(stream.Config{Core: coreCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	missing := filepath.Join(t.TempDir(), "nope.jsonl")
	if _, err := eng.FollowFile(context.Background(), missing, stream.FollowOptions{}); err == nil {
		t.Error("one-shot follow of a missing file should fail")
	}
	if _, err := eng.FollowFile(context.Background(), missing, stream.FollowOptions{Live: true}); err == nil {
		t.Error("live follow of a missing file should fail")
	}
}

// TestFollowSkipAndCheckpoint: SkipRecords discards the replayed prefix
// (the restored checkpoint already holds its effects) while the
// checkpointer cuts on the ABSOLUTE source position, so a later resume
// lands past both.
func TestFollowSkipAndCheckpoint(t *testing.T) {
	_, coreCfg := testConfig()
	dir := t.TempDir()
	path, recs := followTrace(t, dir)
	skip := uint64(len(recs) / 2)

	reference, err := stream.New(stream.Config{Core: coreCfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[skip:] {
		if err := reference.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	want, err := reference.Close()
	if err != nil {
		t.Fatal(err)
	}

	eng, err := stream.New(stream.Config{Core: coreCfg})
	if err != nil {
		t.Fatal(err)
	}
	ckDir := filepath.Join(dir, "ckpt")
	ck, err := stream.NewCheckpointer(stream.CheckpointConfig{
		Dir:          ckDir,
		EveryRecords: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.FollowFile(context.Background(), path, stream.FollowOptions{
		SkipRecords: skip,
		Checkpoint:  ck,
	})
	if err != nil {
		t.Fatalf("FollowFile: %v", err)
	}
	if res.Records != len(recs) {
		t.Errorf("followed %d records, trace has %d", res.Records, len(recs))
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualLandscapes(t, want, got)

	// The newest checkpoint cut on the ABSOLUTE source position — past the
	// skipped prefix — so a resume from it would replay nothing twice.
	state, info, err := stream.LoadCheckpoint(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Found {
		t.Fatal("no checkpoint written")
	}
	if state.Source.Records <= skip || state.Source.Records > uint64(len(recs)) {
		t.Errorf("checkpoint cut at record %d, want in (%d, %d]", state.Source.Records, skip, len(recs))
	}
}

// TestFollowLiveTail: in live mode Follow keeps consuming appended records
// until the context is cancelled, then drains cleanly.
func TestFollowLiveTail(t *testing.T) {
	spec, coreCfg := testConfig()
	recs := synthTrace(t, spec, 7, 2, 1, 1)
	half := len(recs) / 2
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteObservedJSONL(f, recs[:half]); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	eng, err := stream.New(stream.Config{Core: coreCfg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res trace.ReadResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := eng.FollowFile(ctx, path, stream.FollowOptions{
			Live: true,
			Poll: 2 * time.Millisecond,
		})
		done <- outcome{res, err}
	}()

	// Append the second half while the tail is live, then give the poll
	// loop time to pick it up before cancelling.
	if err := trace.WriteObservedJSONL(f, recs[half:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Ingested < uint64(len(recs)) {
		if time.Now().After(deadline) {
			t.Fatalf("tail ingested %d of %d records before the deadline", eng.Stats().Ingested, len(recs))
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	out := <-done
	if out.err != nil {
		t.Fatalf("live follow: %v", out.err)
	}
	if out.res.Records != len(recs) {
		t.Errorf("followed %d records, appended %d", out.res.Records, len(recs))
	}
	got, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualLandscapes(t, runBatch(t, coreCfg, recs), got)
}
