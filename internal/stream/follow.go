package stream

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"botmeter/internal/trace"
)

// FollowOptions tunes Follow's tailing behaviour.
type FollowOptions struct {
	// Lenient skips malformed lines instead of failing — the right choice
	// for live captures, whose final line may be torn mid-append.
	Lenient bool
	// Poll is the tail polling interval once EOF is reached (0 = 200 ms).
	Poll time.Duration
	// Live, when false, stops at the first EOF instead of tailing — the
	// one-shot replay mode. Only FollowFile tails; Follow reads its reader
	// to EOF whatever Live says.
	Live bool
	// SkipRecords discards the first N well-formed records without feeding
	// them to the engine — the resume-from-checkpoint replay: the engine
	// already holds their effects, so re-observing them would double-count.
	// Malformed lines don't count (they didn't count when the checkpoint's
	// source position was recorded either).
	SkipRecords uint64
	// Checkpoint, when non-nil, checkpoints the engine on the
	// checkpointer's cadence as records flow, keyed by the absolute source
	// position (records consumed, including skipped ones).
	Checkpoint *Checkpointer
}

// Follow feeds the JSON-lines records of r into the engine until r is
// exhausted. It returns the reader's tally — Records counts the skipped
// prefix too, so it is the source position the next checkpoint or resume
// starts from; the engine is left open so the caller decides when to Close
// and render the final landscape.
func (e *Engine) Follow(r io.Reader, opt FollowOptions) (trace.ReadResult, error) {
	var consumed uint64
	trig := opt.Checkpoint.NewTrigger(1)
	return trace.StreamObserved(r, trace.ReadOptions{Lenient: opt.Lenient}, func(rec trace.ObservedRecord) error {
		consumed++
		if consumed <= opt.SkipRecords {
			return nil
		}
		if err := e.Observe(rec); err != nil {
			return err
		}
		if now := time.Now(); trig.Tick(now) {
			trig.Rearm(now)
			return opt.Checkpoint.Try(e, consumed)
		}
		return nil
	})
}

// FollowFile opens path and Follows it. The file is opened at the start
// (not the end): a landscape needs the already-captured epochs too. In
// Live mode the file is tailed rotation-aware (trace.TailFile) until ctx is
// cancelled: an in-place truncation or a rename-and-recreate is survived by
// reopening and resyncing to a record boundary, counted under
// stream_source_rotations_total. Cancellation surfaces as EOF, so records the
// parser already holds still reach the engine and a clean shutdown returns
// nil.
func (e *Engine) FollowFile(ctx context.Context, path string, opt FollowOptions) (trace.ReadResult, error) {
	if opt.Live {
		tf, err := trace.NewTailFile(ctx, path, opt.Poll)
		if err != nil {
			return trace.ReadResult{}, fmt.Errorf("stream: %w", err)
		}
		defer tf.Close()
		tf.OnRotate = func() { e.m.rotations.Inc() }
		return e.Follow(tf, opt)
	}
	f, err := os.Open(path)
	if err != nil {
		return trace.ReadResult{}, fmt.Errorf("stream: %w", err)
	}
	defer f.Close()
	return e.Follow(f, opt)
}
