package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// followConfig carries the flags of the streaming mode.
type followConfig struct {
	in      string // input path ("" = stdin)
	format  string // -format: only jsonl streams
	lenient bool
	live    bool          // keep tailing after EOF until interrupted
	listen  string        // diagnostic HTTP address ("" disables)
	reorder time.Duration // reorder window
	jsonOut bool
	topK    int

	checkpointDir      string // crash-recovery checkpoint directory, restored from at start ("" disables)
	checkpointInterval time.Duration
	checkpointEvery    uint64

	watch        time.Duration // periodic status line cadence (0 disables)
	sloFreshness time.Duration // watermark-lag SLO (0 disables)
	sloLoss      float64       // lossy-ingest ratio SLO (0 disables)
	sloDisagree  float64       // estimator relative-spread SLO (0 disables)
}

// runFollow is `botmeter -follow`: instead of materialising the trace and
// analysing it once, it feeds records to the online engine as they appear
// (optionally tailing a live capture), serves the evolving landscape over
// /landscape, and prints the final landscape when the input ends or the
// process is interrupted.
func runFollow(coreCfg core.Config, fc followConfig) error {
	if fc.format != "jsonl" {
		return fmt.Errorf("-follow reads jsonl input, not %q", fc.format)
	}
	if fc.checkpointDir != "" && fc.in == "" {
		return fmt.Errorf("-checkpoint-dir needs a replayable input file (-in), not stdin")
	}
	if fc.live && fc.in == "" {
		return fmt.Errorf("-live tails the file named by -in; to tail stdin, pipe `tail -F FILE` into -follow")
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var reg *obs.Registry
	if fc.listen != "" {
		reg = obs.NewRegistry()
	}
	streamCfg := stream.Config{
		Core:          coreCfg,
		ReorderWindow: sim.FromDuration(fc.reorder),
		Registry:      reg,
	}

	// With -checkpoint-dir, restore the newest good checkpoint (falling back
	// past torn, corrupt or unrestorable generations, and starting fresh when
	// the input no longer holds what it was cut from) and replay the input
	// from its offset, so every record is applied exactly once across a crash.
	var eng *stream.Engine
	var info stream.RecoveryInfo
	var err error
	if fc.checkpointDir == "" {
		eng, err = stream.New(streamCfg)
	} else if eng, info, err = stream.RestoreLatest(streamCfg, fc.checkpointDir, fc.in); err == nil {
		if info.Found {
			fmt.Fprintf(os.Stderr, "botmeter: %s, replaying input from record %d\n", info, info.Records)
		} else {
			fmt.Fprintf(os.Stderr, "botmeter: %s, starting fresh\n", info)
		}
	}
	if err != nil {
		return err
	}

	var ck *stream.Checkpointer
	if fc.checkpointDir != "" {
		ck, err = stream.NewCheckpointer(stream.CheckpointConfig{
			Dir:          fc.checkpointDir,
			Interval:     fc.checkpointInterval,
			EveryRecords: fc.checkpointEvery,
			Registry:     reg,
			Source:       fc.in,
		})
		if err != nil {
			eng.Close() //nolint:errcheck // the checkpointer error wins
			return err
		}
	}
	// The observatory samples ingest health and landscape history in the
	// background. It is only worth running when something consumes it: a
	// -watch status line, a -listen endpoint, or an armed SLO rule.
	var obsy *stream.Observatory
	if fc.watch > 0 || fc.listen != "" || fc.sloFreshness > 0 || fc.sloLoss > 0 || fc.sloDisagree > 0 {
		obsy, err = stream.NewObservatory(stream.ObservatoryConfig{
			Engine:          eng,
			Checkpoints:     ck,
			Registry:        reg,
			FreshnessSLO:    fc.sloFreshness,
			LossRateSLO:     fc.sloLoss,
			DisagreementSLO: fc.sloDisagree,
		})
		if err != nil {
			eng.Close() //nolint:errcheck // the observatory error wins
			return err
		}
		obsy.Start()
		defer obsy.Stop()
	}
	if fc.listen != "" {
		muxCfg := obs.MuxConfig{
			Registry:  reg,
			Landscape: eng.LandscapeJSON,
		}
		if obsy != nil {
			muxCfg.Series = obsy.Store()
			muxCfg.History = obsy.HistoryJSON
			muxCfg.Health = obsy.Health
		}
		diag, err := obs.StartHTTP(fc.listen, obs.NewMux(muxCfg))
		if err != nil {
			eng.Close() //nolint:errcheck // the listen error wins
			return err
		}
		defer diag.Close()
		fmt.Fprintf(os.Stderr, "botmeter: live landscape at http://%s/landscape\n", diag.Addr())
	}
	if fc.watch > 0 && obsy != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			tick := time.NewTicker(fc.watch)
			defer tick.Stop()
			for {
				select {
				case <-watchDone:
					return
				case <-tick.C:
					fmt.Fprintf(os.Stderr, "botmeter: %s\n", obsy.StatusLine())
				}
			}
		}()
	}

	opt := stream.FollowOptions{
		Lenient:     fc.lenient,
		Live:        fc.live,
		SkipRecords: info.Records,
		Checkpoint:  ck,
	}
	started := time.Now()
	var res trace.ReadResult
	if fc.in == "" {
		res, err = eng.Follow(os.Stdin, opt)
	} else {
		res, err = eng.FollowFile(ctx, fc.in, opt)
	}
	elapsed := time.Since(started)
	finalLag := eng.WatermarkLagSeconds()
	if err != nil {
		eng.Close() //nolint:errcheck // the read error wins
		return err
	}
	if ck != nil {
		if err := ck.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "botmeter: last checkpoint failed: %v\n", err)
		}
	}
	land, err := eng.Close()
	if err != nil {
		return err
	}
	stats := eng.Stats()
	if res.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "botmeter: skipped %d malformed line(s)\n", res.Skipped)
	}
	fmt.Fprintf(os.Stderr, "botmeter: streamed %d record(s): %d matched, %d late-dropped, %d reorder-evicted, %d epoch cell(s) closed, %s, final watermark lag %s\n",
		stats.Ingested, stats.Matched, stats.DroppedLate, stats.ReorderEvictions, stats.EpochsClosed,
		formatRate(stats.Ingested, elapsed), formatLag(finalLag))
	if stats.DroppedLate+stats.ReorderEvictions > 0 {
		fmt.Fprintf(os.Stderr, "botmeter: WARNING: %d record(s) lost or force-emitted out of order (late drops + reorder evictions) — the landscape may undercount; consider a larger -reorder-window\n",
			stats.DroppedLate+stats.ReorderEvictions)
	}
	if stats.Ingested == 0 {
		return fmt.Errorf("no observations in input")
	}
	if fc.topK > 0 {
		land.Servers = land.Top(fc.topK)
	}
	if fc.jsonOut {
		return land.WriteJSON(os.Stdout)
	}
	fmt.Print(land.String())
	return nil
}

// formatRate renders an end-of-run ingest rate, guarding the zero-length
// runs that one-shot tests produce.
func formatRate(ingested uint64, elapsed time.Duration) string {
	if elapsed <= 0 {
		return "0 records/s"
	}
	return fmt.Sprintf("%.0f records/s", float64(ingested)/elapsed.Seconds())
}

// formatLag renders the final watermark lag. Replays of simulated traces
// carry virtual timestamps that are arbitrarily far from the wall clock,
// so an absurd lag is reported as such instead of as a huge number.
func formatLag(seconds float64) string {
	if seconds > 48*60*60 {
		return "n/a (virtual timestamps)"
	}
	return fmt.Sprintf("%.1fs", seconds)
}
