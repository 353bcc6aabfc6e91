package stream_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/faults"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// landscapeBytes renders a landscape with the stable JSON schema — the
// byte-identical half of the kill–resume contract.
func landscapeBytes(tb testing.TB, land *core.Landscape) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := land.WriteJSON(&buf); err != nil {
		tb.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// runUninterrupted is the reference: one engine, fed start to finish.
func runUninterrupted(tb testing.TB, cfg stream.Config, delivered trace.Observed) (*core.Landscape, stream.Stats) {
	tb.Helper()
	eng, err := stream.New(cfg)
	if err != nil {
		tb.Fatalf("stream.New: %v", err)
	}
	for _, rec := range delivered {
		if err := eng.Observe(rec); err != nil {
			tb.Fatalf("Observe: %v", err)
		}
	}
	land, err := eng.Close()
	if err != nil {
		tb.Fatalf("Close: %v", err)
	}
	return land, eng.Stats()
}

// writeJSONL writes recs to path as a JSON-lines trace and returns path.
func writeJSONL(tb testing.TB, path string, recs trace.Observed) string {
	tb.Helper()
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteObservedJSONL(f, recs); err != nil {
		tb.Fatal(err)
	}
	return path
}

// resume is the one recovery path (DESIGN.md §15), as cmd/vantage and
// botmeter -follow run it: RestoreLatest over dir, then FollowFile over
// source from the offset it recovered, checkpointing into ck (when non-nil)
// along the way.
func resume(tb testing.TB, cfg stream.Config, dir, source string, ck *stream.Checkpointer) (*stream.Engine, stream.RecoveryInfo) {
	tb.Helper()
	eng, info, err := stream.RestoreLatest(cfg, dir, source)
	if err != nil {
		tb.Fatalf("RestoreLatest: %v", err)
	}
	if _, err := eng.FollowFile(context.Background(), source, stream.FollowOptions{SkipRecords: info.Records, Checkpoint: ck}); err != nil {
		tb.Fatalf("FollowFile (resume): %v", err)
	}
	return eng, info
}

// runKilledAndResumed feeds delivered while checkpointing every
// checkpointEvery records, kills the engine (no flush, no final
// checkpoint) right after record killAt, then recovers through resume over
// source, the delivered records written as a trace — checkpointing along
// the way too, so the second leg writes further generations into the same
// directory.
func runKilledAndResumed(tb testing.TB, cfg stream.Config, delivered trace.Observed, source, dir string, killAt int, checkpointEvery uint64) (*core.Landscape, stream.Stats) {
	tb.Helper()
	eng, err := stream.New(cfg)
	if err != nil {
		tb.Fatalf("stream.New: %v", err)
	}
	ck, err := stream.NewCheckpointer(stream.CheckpointConfig{Dir: dir, EveryRecords: checkpointEvery, Source: source})
	if err != nil {
		tb.Fatalf("NewCheckpointer: %v", err)
	}
	trig := ck.NewTrigger(1)
	for i := 0; i < killAt; i++ {
		if err := eng.Observe(delivered[i]); err != nil {
			tb.Fatalf("Observe: %v", err)
		}
		if now := time.Now(); trig.Tick(now) {
			trig.Rearm(now)
			if err := ck.Try(eng, uint64(i+1)); err != nil {
				tb.Fatalf("Try: %v", err)
			}
		}
	}
	eng.Kill()
	// A real SIGKILL would also interrupt an in-flight background write —
	// the torn-file cases are covered by the crash-point and corruption
	// tests; here we let it land so the recovery point is deterministic.
	ck.Close() //nolint:errcheck // in-flight write only

	// Killed before the first checkpoint landed, resume starts fresh.
	ck2, err := stream.NewCheckpointer(stream.CheckpointConfig{Dir: dir, EveryRecords: checkpointEvery, Source: source})
	if err != nil {
		tb.Fatalf("NewCheckpointer (resume): %v", err)
	}
	resumed, info := resume(tb, cfg, dir, source, ck2)
	if info.Records > uint64(killAt) {
		tb.Fatalf("checkpoint claims %d records consumed, only %d were fed", info.Records, killAt)
	}
	if err := ck2.Close(); err != nil {
		tb.Fatalf("checkpointer close: %v", err)
	}
	land, err := resumed.Close()
	if err != nil {
		tb.Fatalf("Close (resume): %v", err)
	}
	return land, resumed.Stats()
}

// TestKillResumeDifferential is the headline robustness contract (ISSUE 6,
// DESIGN.md §15): a run killed at an arbitrary record — losing everything
// since the last checkpoint — and resumed from the newest checkpoint must
// produce a landscape byte-identical to the uninterrupted run, for every
// estimator configuration and at any shard count. Runs under -race in CI.
func TestKillResumeDifferential(t *testing.T) {
	const (
		seed            = uint64(0xC4A5)
		servers         = 12
		epochs          = 3
		reorderWindow   = 5 * sim.Second
		checkpointEvery = 97 // prime: cuts land mid-epoch, mid-buffer
	)
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			base := synthTrace(t, tc.spec, seed, servers, epochs, tc.activations)
			delivered := chunkShuffle(base, reorderWindow, sim.NewRNG(seed+1))
			if len(delivered) < 500 {
				t.Fatalf("trace too small for a meaningful differential: %d records", len(delivered))
			}
			source := writeJSONL(t, filepath.Join(t.TempDir(), "obs.jsonl"), delivered)
			for _, shards := range []int{1, 4} {
				coreCfg := core.Config{
					Family:        tc.spec,
					Seed:          seed,
					EpochLen:      testEpochLen,
					SecondOpinion: tc.secondOpinion,
				}
				streamCfg := stream.Config{
					Core:          coreCfg,
					Shards:        shards,
					ReorderWindow: reorderWindow,
					Registry:      obs.NewRegistry(),
				}
				if tc.estimators != nil {
					streamCfg.Core.Estimators = tc.estimators()
				}
				want, wantStats := runUninterrupted(t, streamCfg, delivered)
				wantBytes := landscapeBytes(t, want)

				// Randomized kill points: early (likely before the first
				// checkpoint), middle, late.
				rng := sim.NewRNG(seed + uint64(shards))
				kills := []int{
					1 + int(rng.Int64N(checkpointEvery)),
					len(delivered)/2 + int(rng.Int64N(int64(len(delivered)/4))),
					len(delivered) - 1 - int(rng.Int64N(checkpointEvery)),
				}
				for _, killAt := range kills {
					t.Run(fmt.Sprintf("shards=%d/kill=%d", shards, killAt), func(t *testing.T) {
						cfg := streamCfg
						cfg.Registry = obs.NewRegistry()
						if tc.estimators != nil {
							cfg.Core.Estimators = tc.estimators()
						}
						got, gotStats := runKilledAndResumed(t, cfg, delivered, source, t.TempDir(), killAt, checkpointEvery)
						requireEqualLandscapes(t, want, got)
						if gotBytes := landscapeBytes(t, got); !bytes.Equal(wantBytes, gotBytes) {
							t.Fatalf("landscape JSON differs after kill-resume:\nwant %s\ngot  %s", wantBytes, gotBytes)
						}
						if wantStats != gotStats {
							t.Fatalf("stats differ after kill-resume:\nwant %+v\ngot  %+v", wantStats, gotStats)
						}
					})
				}
			}
		})
	}
}

// TestKillMidCheckpoint crashes INSIDE the checkpoint write (deterministic
// crash point, half the file written) and resumes. The torn temp file must
// be ignored, recovery must restore the newest completed generation, and
// the result must still be byte-identical.
func TestKillMidCheckpoint(t *testing.T) {
	const (
		seed            = uint64(0xDEAD)
		reorderWindow   = 5 * sim.Second
		checkpointEvery = 83
	)
	tc := diffCases()[0] // MP + second opinion: exercises records AND both MT streams
	delivered := chunkShuffle(synthTrace(t, tc.spec, seed, 10, 3, tc.activations), reorderWindow, sim.NewRNG(seed))
	streamCfg := stream.Config{
		Core:          core.Config{Family: tc.spec, Seed: seed, EpochLen: testEpochLen, SecondOpinion: tc.secondOpinion},
		Shards:        3,
		ReorderWindow: reorderWindow,
	}
	want, _ := runUninterrupted(t, streamCfg, delivered)
	wantBytes := landscapeBytes(t, want)
	source := writeJSONL(t, filepath.Join(t.TempDir(), "obs.jsonl"), delivered)

	for _, nth := range []uint64{1, 3} { // die writing the 1st / the 3rd checkpoint
		t.Run(fmt.Sprintf("occurrence=%d", nth), func(t *testing.T) {
			dir := t.TempDir()
			crash := faults.NewCrasher(faults.CrashSpec{Point: "checkpoint-write", PointNth: nth})
			// The crash fires on the checkpointer's writer goroutine: record it
			// and end that goroutine there, as a kill would.
			var died atomic.Bool
			crash.Die = func(string) {
				died.Store(true)
				runtime.Goexit()
			}

			eng, err := stream.New(streamCfg)
			if err != nil {
				t.Fatalf("stream.New: %v", err)
			}
			ck, err := stream.NewCheckpointer(stream.CheckpointConfig{
				Dir: dir, EveryRecords: checkpointEvery, Crash: crash, Source: source,
			})
			if err != nil {
				t.Fatalf("NewCheckpointer: %v", err)
			}
			// Checkpoint waits out the write in flight, so every due checkpoint
			// is written and the nth write is reached.
			trig := ck.NewTrigger(1)
			for i, rec := range delivered {
				if err := eng.Observe(rec); err != nil {
					t.Fatalf("Observe: %v", err)
				}
				if now := time.Now(); trig.Tick(now) {
					trig.Rearm(now)
					if err := ck.Checkpoint(eng, uint64(i+1)); err != nil {
						t.Fatalf("Checkpoint: %v", err)
					}
					if died.Load() {
						break
					}
				}
			}
			if !died.Load() {
				t.Fatalf("crash point never fired (fewer than %d checkpoints?)", nth)
			}
			eng.Kill()

			// The torn temp must exist (proof the crash landed mid-write)
			// and must not be visible to recovery.
			if !hasTmpCheckpoint(t, dir) {
				t.Fatal("expected a torn .tmp- checkpoint file after the mid-write crash")
			}
			resumed, info := resume(t, streamCfg, dir, source, nil)
			if nth == 1 {
				if info.Found {
					t.Fatalf("no checkpoint ever completed, yet recovery found generation %d", info.Gen)
				}
			} else if !info.Found {
				t.Fatal("expected a completed earlier generation to recover from")
			}
			land, err := resumed.Close()
			if err != nil {
				t.Fatalf("Close (resume): %v", err)
			}
			if gotBytes := landscapeBytes(t, land); !bytes.Equal(wantBytes, gotBytes) {
				t.Fatalf("landscape differs after mid-checkpoint crash:\nwant %s\ngot  %s", wantBytes, gotBytes)
			}
		})
	}
}

func hasTmpCheckpoint(tb testing.TB, dir string) bool {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatalf("ReadDir: %v", err)
	}
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".tmp-") {
			return true
		}
	}
	return false
}

// TestCorruptCheckpointFallback corrupts the newest generation on disk
// (bit flip, truncation, a name the matcher cannot attribute, servers,
// closed or open epochs out of order or repeated) and verifies
// recovery (RestoreLatest) falls back to the previous good generation — and still reproduces the uninterrupted landscape. With
// every generation corrupted, recovery reports "nothing to restore"
// rather than failing.
func TestCorruptCheckpointFallback(t *testing.T) {
	const (
		seed            = uint64(0xFA11)
		reorderWindow   = 5 * sim.Second
		checkpointEvery = 61
	)
	tc := diffCases()[2] // incremental MT
	delivered := chunkShuffle(synthTrace(t, tc.spec, seed, 10, 3, tc.activations), reorderWindow, sim.NewRNG(seed))
	streamCfg := stream.Config{
		Core:          core.Config{Family: tc.spec, Seed: seed, EpochLen: testEpochLen, Estimators: tc.estimators()},
		Shards:        2,
		ReorderWindow: reorderWindow,
	}
	want, _ := runUninterrupted(t, streamCfg, delivered)
	wantBytes := landscapeBytes(t, want)

	corruptions := []struct {
		name    string
		corrupt func(tb testing.TB, path string)
		// why, when set, is part of the reason recovery gives for the skip.
		why string
	}{
		{"bit-flip", func(tb testing.TB, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				tb.Fatalf("ReadFile: %v", err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				tb.Fatalf("WriteFile: %v", err)
			}
		}, ""},
		{"truncated", func(tb testing.TB, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				tb.Fatalf("Stat: %v", err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				tb.Fatalf("Truncate: %v", err)
			}
		}, ""},
		// A file that is whole — framing and checksum hold — but whose state
		// names a domain the restoring engine's matcher cannot attribute: it
		// decodes, and only the restore can tell.
		{"unattributable domain", damaged(func(st *stream.EngineState) bool {
			for _, sh := range st.Shards {
				for i := range sh.Buffer {
					sh.Buffer[i].Domain = "not-in-any-pool.example"
				}
				if len(sh.Buffer) > 0 {
					return true
				}
			}
			return false
		}), ""},
		// Whole files whose servers, closed epochs or open epochs are out of
		// order or repeated: the decoder refuses them too.
		{"servers out of order", damaged(func(st *stream.EngineState) bool {
			return damageShard(st, func(ss []stream.ServerState) { ss[0], ss[1] = ss[1], ss[0] })
		}), "not above the one before"},
		{"server repeated", damaged(func(st *stream.EngineState) bool {
			return damageShard(st, func(ss []stream.ServerState) { ss[1].Name = ss[0].Name })
		}), "not above the one before"},
		{"closed epochs out of order", damaged(func(st *stream.EngineState) bool {
			return damageServer(st, func(ss *stream.ServerState) bool {
				if len(ss.Closed) == 0 {
					return false
				}
				ev := ss.Closed[len(ss.Closed)-1]
				ev.Epoch--
				ss.Closed = append(ss.Closed, ev)
				return true
			})
		}), "not above the one before"},
		{"open epochs out of order", damaged(func(st *stream.EngineState) bool {
			return damageServer(st, func(ss *stream.ServerState) bool {
				if len(ss.Open) == 0 {
					return false
				}
				cs := ss.Open[len(ss.Open)-1]
				cs.Epoch--
				ss.Open = append(ss.Open, cs)
				return true
			})
		}), "not above the one before"},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := streamCfg
			cfg.Core.Estimators = tc.estimators()
			eng, err := stream.New(cfg)
			if err != nil {
				t.Fatalf("stream.New: %v", err)
			}
			ck, err := stream.NewCheckpointer(stream.CheckpointConfig{Dir: dir})
			if err != nil {
				t.Fatalf("NewCheckpointer: %v", err)
			}
			// Synchronous checkpoints: Try skips a trigger that comes due
			// while the previous write is in flight, so how many generations
			// it leaves behind depends on the scheduler, and this test needs
			// two.
			killAt := len(delivered) * 3 / 4
			for i := 0; i < killAt; i++ {
				if err := eng.Observe(delivered[i]); err != nil {
					t.Fatalf("Observe: %v", err)
				}
				if n := uint64(i + 1); n%checkpointEvery == 0 {
					if err := ck.Checkpoint(eng, n); err != nil {
						t.Fatalf("Checkpoint: %v", err)
					}
				}
			}
			eng.Kill()
			st := ck.Stats()
			if st.Written < 2 {
				t.Fatalf("need at least 2 generations to test fallback, wrote %d", st.Written)
			}
			latest := stream.CheckpointPath(dir, st.Gen)
			c.corrupt(t, latest)

			cfg2 := streamCfg
			cfg2.Shards = 0
			cfg2.Core.Estimators = tc.estimators()
			resumed, info, err := stream.RestoreLatest(cfg2, dir, "")
			if err != nil {
				t.Fatalf("RestoreLatest: %v", err)
			}
			if !info.Found {
				t.Fatal("expected fallback to the previous generation")
			}
			if info.Gen != st.Gen-1 {
				t.Fatalf("recovered generation %d, want fallback generation %d", info.Gen, st.Gen-1)
			}
			if info.CorruptSkipped != 1 {
				t.Fatalf("CorruptSkipped = %d, want 1", info.CorruptSkipped)
			}
			if c.why != "" && !strings.Contains(fmt.Sprint(info.SkipErr), c.why) {
				t.Fatalf("generation %d was skipped for %v, want a reason naming %q", st.Gen, info.SkipErr, c.why)
			}
			for i := int(info.Records); i < len(delivered); i++ {
				if err := resumed.Observe(delivered[i]); err != nil {
					t.Fatalf("Observe (resume): %v", err)
				}
			}
			land, err := resumed.Close()
			if err != nil {
				t.Fatalf("Close (resume): %v", err)
			}
			if gotBytes := landscapeBytes(t, land); !bytes.Equal(wantBytes, gotBytes) {
				t.Fatalf("landscape differs after corrupt-fallback recovery:\nwant %s\ngot  %s", wantBytes, gotBytes)
			}

			// Corrupt the fallback too: recovery must degrade to "start
			// fresh", never to an error or a half-loaded state.
			c.corrupt(t, stream.CheckpointPath(dir, info.Gen))
			fresh, info2, err := stream.RestoreLatest(cfg2, dir, "")
			if err != nil {
				t.Fatalf("RestoreLatest (all corrupt): %v", err)
			}
			defer fresh.Kill()
			if info2.Found || info2.Records != 0 || fresh.Stats().Ingested != 0 {
				t.Fatal("every generation is corrupt, yet recovery found one")
			}
			if info2.CorruptSkipped != 2 {
				t.Fatalf("CorruptSkipped = %d, want 2", info2.CorruptSkipped)
			}
		})
	}
}

// damaged returns a corruption that decodes the checkpoint at path, applies
// damage to its state and writes it back as a whole, well-framed file.
// damage returns false when the state holds nothing of its kind.
func damaged(damage func(*stream.EngineState) bool) func(tb testing.TB, path string) {
	return func(tb testing.TB, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatalf("ReadFile: %v", err)
		}
		st, err := stream.DecodeCheckpoint(data)
		if err != nil {
			tb.Fatalf("DecodeCheckpoint: %v", err)
		}
		if !damage(st) {
			tb.Fatal("checkpoint holds nothing to damage")
		}
		if data, err = stream.EncodeCheckpoint(st); err != nil {
			tb.Fatalf("EncodeCheckpoint: %v", err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			tb.Fatalf("WriteFile: %v", err)
		}
	}
}

// damageShard applies damage to the servers of the first shard that has at
// least two.
func damageShard(st *stream.EngineState, damage func([]stream.ServerState)) bool {
	for _, sh := range st.Shards {
		if len(sh.Servers) >= 2 {
			damage(sh.Servers)
			return true
		}
	}
	return false
}

// damageServer applies damage to servers until it reports one damaged.
func damageServer(st *stream.EngineState, damage func(*stream.ServerState) bool) bool {
	for _, sh := range st.Shards {
		for i := range sh.Servers {
			if damage(&sh.Servers[i]) {
				return true
			}
		}
	}
	return false
}

// TestRestoreLatestStaleSource: a checkpoint cut further into the source file
// than the file is long now is not restored, and — decided before an engine
// exists — leaves nothing of itself in the registry the fresh engine takes
// over: per-shard callback gauges are first-wins and the retained gauge is
// additive, so an engine restored and then killed would go on being charted.
func TestRestoreLatestStaleSource(t *testing.T) {
	tc := diffCases()[1]
	delivered := synthTrace(t, tc.spec, 7, 4, 2, tc.activations)
	dir := t.TempDir()
	source := filepath.Join(dir, "observed.jsonl")
	if err := os.WriteFile(source, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := stream.Config{
		Core:     core.Config{Family: tc.spec, Seed: 7, EpochLen: testEpochLen},
		Shards:   1,
		Registry: reg,
	}
	eng, err := stream.New(stream.Config{Core: cfg.Core, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range delivered[:len(delivered)/2] {
		if err := eng.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := stream.NewCheckpointer(stream.CheckpointConfig{Dir: dir, Source: source})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Checkpoint(eng, uint64(len(delivered)/2)); err != nil {
		t.Fatal(err)
	}
	eng.Kill()

	restored, info, err := stream.RestoreLatest(cfg, dir, source)
	if err != nil || !info.Found || info.Stale || info.Records != uint64(len(delivered)/2) {
		t.Fatalf("source as long as the cut: %+v, %v; want the generation restored", info, err)
	}
	restored.Kill()

	reg = obs.NewRegistry()
	cfg.Registry = reg
	if err := os.Truncate(source, 99); err != nil {
		t.Fatal(err)
	}
	fresh, info, err := stream.RestoreLatest(cfg, dir, source)
	if err != nil || info.Found || !info.Stale || info.Records != 0 || info.Gen != ck.Stats().Gen {
		t.Fatalf("truncated source: %+v, %v; want nothing restored and generation %d stale", info, err, ck.Stats().Gen)
	}
	defer fresh.Kill()
	if st := fresh.Stats(); st.Ingested != 0 || st.Retained != 0 {
		t.Errorf("truncated source: engine stats %+v, want a fresh engine", st)
	}
	if got := reg.GaugeValue(stream.MetricRetained); got != 0 {
		t.Errorf("%s = %v after a stale checkpoint was passed over, want 0", stream.MetricRetained, got)
	}
	unchecked, info, err := stream.RestoreLatest(stream.Config{Core: cfg.Core, Shards: 1}, dir, "")
	if err != nil || !info.Found {
		t.Fatalf("no source named: %+v, %v; want the generation restored", info, err)
	}
	unchecked.Kill()
}

// TestMetricsReadStats: the engine's stream_* counters and its retained
// gauge are read from the shards' own tallies. On a fresh engine each
// counter is its Stats field; after a Restore each counts this process's
// work — Stats less what the checkpoint put in — and the retained gauge is
// Stats().Retained throughout.
func TestMetricsReadStats(t *testing.T) {
	tc := diffCases()[1]
	// A shuffle wider than the reorder window makes late drops, and a small
	// reorder buffer makes evictions: every tally moves.
	delivered := chunkShuffle(synthTrace(t, tc.spec, 7, 6, 3, tc.activations), 10*sim.Minute, sim.NewRNG(3))
	half := len(delivered) / 2
	coreCfg := core.Config{Family: tc.spec, Seed: 7, EpochLen: testEpochLen}
	check := func(reg *obs.Registry, eng *stream.Engine, base stream.ShardStats) {
		t.Helper()
		st := eng.Stats()
		for name, want := range map[string]uint64{
			stream.MetricIngested:  st.Ingested - base.Ingested,
			stream.MetricMatched:   st.Matched - base.Matched,
			stream.MetricUnmatched: st.Unmatched - base.Unmatched,
			stream.MetricLate:      st.DroppedLate - base.DroppedLate,
			stream.MetricEvictions: st.ReorderEvictions - base.ReorderEvictions,
			stream.MetricEpochs:    st.EpochsClosed - base.EpochsClosed,
		} {
			if got := reg.CounterValue(name); got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
		if got := reg.GaugeValue(stream.MetricRetained); got != float64(st.Retained) {
			t.Errorf("%s = %v, Stats().Retained = %d", stream.MetricRetained, got, st.Retained)
		}
	}
	feed := func(eng *stream.Engine, recs trace.Observed) {
		t.Helper()
		for _, rec := range recs {
			if err := eng.Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	reg := obs.NewRegistry()
	eng, err := stream.New(stream.Config{Core: coreCfg, Shards: 2, ReorderWindow: 5 * sim.Minute, MaxReorder: 16, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	feed(eng, delivered[:half])
	st, err := eng.ExportState() // a barrier: every record fed is ingested
	if err != nil {
		t.Fatal(err)
	}
	check(reg, eng, stream.ShardStats{})
	restored := eng.Stats().ShardStats
	eng.Kill()
	if restored.DroppedLate == 0 || restored.ReorderEvictions == 0 || restored.EpochsClosed == 0 || restored.Unmatched == 0 {
		t.Fatalf("first half tallies %+v: every counter should have moved", restored)
	}

	reg = obs.NewRegistry()
	eng, err = stream.Restore(stream.Config{Core: coreCfg, ReorderWindow: 5 * sim.Minute, MaxReorder: 16, Registry: reg}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Kill()
	check(reg, eng, restored)
	if reg.GaugeValue(stream.MetricRetained) == 0 {
		t.Error("the restored reorder buffers are not in the retained gauge")
	}
	feed(eng, delivered[half:])
	if err := eng.Quiesce(); err != nil {
		t.Fatal(err)
	}
	check(reg, eng, restored)
	if reg.CounterValue(stream.MetricIngested) != uint64(len(delivered)-half) {
		t.Errorf("%s = %d after %d records fed to the restored engine", stream.MetricIngested, reg.CounterValue(stream.MetricIngested), len(delivered)-half)
	}
}

// TestRestoreFingerprintMismatch: estimator state under one configuration
// must not silently seed an engine with another.
func TestRestoreFingerprintMismatch(t *testing.T) {
	tc := diffCases()[1]
	delivered := synthTrace(t, tc.spec, 7, 4, 2, tc.activations)
	cfg := stream.Config{
		Core:          core.Config{Family: tc.spec, Seed: 7, EpochLen: testEpochLen},
		Shards:        2,
		ReorderWindow: 5 * sim.Second,
	}
	eng, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	for _, rec := range delivered[:200] {
		if err := eng.Observe(rec); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	state, err := eng.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	eng.Kill()
	for name, mutate := range map[string]func(*stream.Config){
		"seed":           func(c *stream.Config) { c.Core.Seed = 8 },
		"shards":         func(c *stream.Config) { c.Shards = 3 },
		"reorder-window": func(c *stream.Config) { c.ReorderWindow = 9 * sim.Second },
		"second-opinion": func(c *stream.Config) { c.Core.SecondOpinion = true },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := stream.Restore(bad, state); err == nil {
			t.Errorf("%s: Restore accepted a state from a different configuration", name)
		}
	}
	if resumed, err := stream.Restore(cfg, state); err != nil {
		t.Errorf("identical config: Restore failed: %v", err)
	} else {
		resumed.Kill()
	}
}

// TestExportStateStableBytes: the same engine state must always serialize
// to the same bytes (maps are exported sorted), so checkpoint generations
// diff cleanly and the byte-identical guarantee is testable at all.
func TestExportStateStableBytes(t *testing.T) {
	tc := diffCases()[0]
	delivered := synthTrace(t, tc.spec, 11, 6, 2, tc.activations)
	eng, err := stream.New(stream.Config{
		Core:          core.Config{Family: tc.spec, Seed: 11, EpochLen: testEpochLen, SecondOpinion: true},
		Shards:        2,
		ReorderWindow: 5 * sim.Second,
	})
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	for _, rec := range delivered[:300] {
		if err := eng.Observe(rec); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	first, err := eng.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	second, err := eng.ExportState()
	if err != nil {
		t.Fatalf("ExportState (again): %v", err)
	}
	a, err := stream.EncodeCheckpoint(first)
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	b, err := stream.EncodeCheckpoint(second)
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two exports of an idle engine produced different bytes")
	}
	// And a restored engine must re-export the same state it was built
	// from (round-trip stability).
	eng.Kill()
	restored, err := stream.Restore(stream.Config{
		Core:          core.Config{Family: tc.spec, Seed: 11, EpochLen: testEpochLen, SecondOpinion: true},
		ReorderWindow: 5 * sim.Second,
	}, first)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer restored.Kill()
	third, err := restored.ExportState()
	if err != nil {
		t.Fatalf("ExportState (restored): %v", err)
	}
	c, err := stream.EncodeCheckpoint(third)
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("restore→export round trip changed the state bytes")
	}
}

// TestCheckpointBytesPinned: a vantage upgraded in place resumes from the
// generations its predecessor wrote, and a coordinator decodes what vantages
// of other builds serve, so the bytes of a checkpoint — format v7, field
// order, set order, candidate order — are part of the contract. The hashes
// were recorded when v7 was introduced (stable over -count 3 -cpu 1,2,4); a
// change that moves them is a format change and takes a new version number.
func TestCheckpointBytesPinned(t *testing.T) {
	want := map[string][3]string{
		"MP-murofet": {
			"befdc7883da712ab633f900788f75a42b190c3525867e9df7542ebb5c971a354",
			"4b382ea9543cbbc6234f5446f6a72356eb8f1425fad39203b53babf061fcb271",
			"7dfec6d1239a48d22b2de973797eb1c944cf5fc1ba361543a84b8589743213d1",
		},
		"MB-newgoz": {
			"e19a923bd4c0f43468c5ecec9298d960331672d62113a1c58f8f237f252775ae",
			"a409f50741fc5470d9a526d9b92967d01dadcdf81cf82befaad5543a8541b18a",
			"6c6028f608efb0bcae34a42c62e83437cabe9dfef77a6f440a6bfa67105858b0",
		},
		"MT-murofet": {
			"5844ade65f26a595577789e5d37369fcd6bb3140a75ef5bbde1746d7d102774e",
			"09e142d966e70f8c2e8b8d4d90649a16f88ef00ec2b485df5578e148c32d522b",
			"faa19d58c712d86ca0204065510e97d5dc3a45656fa3a5014277bdb92a391fdb",
		},
		"MB-C-newgoz": {
			"ebe2fef8309d73e787b6bfff4fd00f85e2db780baa16ae4ec648f587f45e57a3",
			"acc58680d437c215c541eb21773d3a69894ee0a83c3dbfb20580c54620d7e59d",
			"593087b651f30a5a2f25a59461a1572848d949e0d84b50a790999ecbecefb63c",
		},
		"NC-murofet": {
			"9248dcffb15699d2a3322d216094f8ac1f3c881fc425ea89d7dc7b62172a4417",
			"aff33975aa93b08519720377a2fcef3fef6182af43027af286a33277024c1707",
			"2c1a3ae543d5c11dab1689d1c69b9733c5bcee524a9673000f62bc8537b51c0c",
		},
		"set-murofet": {
			"f6c5698c57ddf0d367d72f4482405ed1fe81fe6c018e1b360e1d7273f836d334",
			"44a9c9eda9f886bd46de1ab10928062b647bdd4d59e1ef3fc182e7b1c6d67d8d",
			"f42bdd2a38f0876f83dac5330b56f8ba97dee55a006fe8f153067997b6a42798",
		},
	}
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			base := synthTrace(t, tc.spec, 23, 12, 3, tc.activations)
			delivered := chunkShuffle(base, 5*sim.Second, sim.NewRNG(24))
			cfg := stream.Config{
				Core:          core.Config{Family: tc.spec, Seed: 23, EpochLen: testEpochLen, SecondOpinion: true},
				Shards:        2,
				ReorderWindow: 5 * sim.Second,
			}
			if tc.estimators != nil {
				cfg.Core.Estimators = tc.estimators()
			}
			eng, err := stream.New(cfg)
			if err != nil {
				t.Fatalf("stream.New: %v", err)
			}
			defer eng.Kill()
			var got [3]string
			fed := 0
			for cut := range got {
				for end := (cut + 1) * len(delivered) / 4; fed < end; fed++ {
					if err := eng.Observe(delivered[fed]); err != nil {
						t.Fatalf("Observe: %v", err)
					}
				}
				st, err := eng.ExportState()
				if err != nil {
					t.Fatalf("ExportState: %v", err)
				}
				data, err := stream.EncodeCheckpoint(st)
				if err != nil {
					t.Fatalf("EncodeCheckpoint: %v", err)
				}
				got[cut] = fmt.Sprintf("%x", sha256.Sum256(data))
			}
			if got != want[tc.name] {
				t.Fatalf("checkpoint bytes moved:\n got  %q\n want %q", got, want[tc.name])
			}
		})
	}
}

// TestQuiesceMatchesBatch: after feeding a whole in-order trace and
// quiescing, the live Snapshot must equal the batch landscape — the
// property the vantage crash-recovery smoke relies on when it compares
// /landscape (post-replay) against `botmeter` over the same file.
func TestQuiesceMatchesBatch(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			delivered := synthTrace(t, tc.spec, 13, 8, 3, tc.activations)
			coreCfg := core.Config{
				Family:        tc.spec,
				Seed:          13,
				EpochLen:      testEpochLen,
				SecondOpinion: tc.secondOpinion,
			}
			streamCfg := stream.Config{Core: coreCfg, Shards: 3, ReorderWindow: 5 * sim.Second}
			if tc.estimators != nil {
				coreCfg.Estimators = tc.estimators()
				streamCfg.Core.Estimators = tc.estimators()
			}
			want := runBatch(t, coreCfg, delivered)
			eng, err := stream.New(streamCfg)
			if err != nil {
				t.Fatalf("stream.New: %v", err)
			}
			defer eng.Kill()
			for _, rec := range delivered {
				if err := eng.Observe(rec); err != nil {
					t.Fatalf("Observe: %v", err)
				}
			}
			if err := eng.Quiesce(); err != nil {
				t.Fatalf("Quiesce: %v", err)
			}
			got, err := eng.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			requireEqualLandscapes(t, want, got)
		})
	}
}

// TestCheckpointDecodeRejects covers the framing validations one by one.
func TestCheckpointDecodeRejects(t *testing.T) {
	st := &stream.EngineState{Shards: []stream.ShardState{{Seq: 1}}}
	good, err := stream.EncodeCheckpoint(st)
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	if _, err := stream.DecodeCheckpoint(good); err != nil {
		t.Fatalf("DecodeCheckpoint rejected a good frame: %v", err)
	}
	cases := map[string]func([]byte) []byte{
		"short":       func(b []byte) []byte { return b[:20] },
		"bad-magic":   func(b []byte) []byte { b[0] = 'X'; return b },
		"bad-version": func(b []byte) []byte { b[7] = 99; return b },
		// Frames of an older format version — 1 predates the per-family cell
		// layout, 2 carried a JSON payload, 3 a record list in every cell, 4
		// one estimator per cell with an MT second opinion beside it, 5 each
		// server's domains as names, 6 as (epoch, position) keys — must be
		// rejected by version, not misparsed, so recovery falls back to a
		// clean cold start.
		"old-version-1":   func(b []byte) []byte { b[7] = 1; return b },
		"old-version-2":   func(b []byte) []byte { b[7] = 2; return b },
		"old-version-3":   func(b []byte) []byte { b[7] = 3; return b },
		"old-version-4":   func(b []byte) []byte { b[7] = 4; return b },
		"old-version-5":   func(b []byte) []byte { b[7] = 5; return b },
		"old-version-6":   func(b []byte) []byte { b[7] = 6; return b },
		"length-mismatch": func(b []byte) []byte { return b[:len(b)-1] },
		"payload-flip":    func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"checksum-flip":   func(b []byte) []byte { b[20] ^= 1; return b },
	}
	for name, mutate := range cases {
		data := mutate(append([]byte(nil), good...))
		_, err := stream.DecodeCheckpoint(data)
		if err == nil {
			t.Errorf("%s: DecodeCheckpoint accepted a corrupt frame", name)
		} else if strings.Contains(name, "version") && !strings.Contains(err.Error(), fmt.Sprintf("unsupported checkpoint version %d (want 7)", data[7])) {
			t.Errorf("%s: refused with %q, not by its version", name, err)
		}
	}
}

// TestCheckpointerGenerations: retention keeps Keep generations, numbering
// continues across restarts, and LoadCheckpoint tolerates a missing dir.
func TestCheckpointerGenerations(t *testing.T) {
	if _, info, err := stream.LoadCheckpoint(filepath.Join(t.TempDir(), "never-created")); err != nil || info.Found {
		t.Fatalf("missing dir: err=%v found=%v, want clean fresh start", err, info.Found)
	}
	tc := diffCases()[1]
	delivered := synthTrace(t, tc.spec, 3, 4, 2, tc.activations)
	dir := t.TempDir()
	cfg := stream.Config{
		Core:          core.Config{Family: tc.spec, Seed: 3, EpochLen: testEpochLen},
		Shards:        2,
		ReorderWindow: 5 * sim.Second,
	}
	eng, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	ck, err := stream.NewCheckpointer(stream.CheckpointConfig{Dir: dir, EveryRecords: 50, Keep: 2})
	if err != nil {
		t.Fatalf("NewCheckpointer: %v", err)
	}
	// Synchronous checkpoints so each call deterministically writes one
	// generation (Try may skip triggers while a background write is in
	// flight — that path is covered by the differential tests).
	for i, rec := range delivered[:400] {
		if err := eng.Observe(rec); err != nil {
			t.Fatalf("Observe: %v", err)
		}
		if n := uint64(i + 1); n%100 == 0 {
			if err := ck.Checkpoint(eng, n); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	eng.Kill()
	st := ck.Stats()
	if st.Written != 4 {
		t.Fatalf("expected 4 generations, wrote %d", st.Written)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var files []string
	for _, ent := range entries {
		files = append(files, ent.Name())
	}
	if len(files) != 2 {
		t.Fatalf("retention kept %d files (%v), want 2", len(files), files)
	}
	// A new checkpointer over the same dir numbers past the survivors.
	ck2, err := stream.NewCheckpointer(stream.CheckpointConfig{Dir: dir, EveryRecords: 50})
	if err != nil {
		t.Fatalf("NewCheckpointer (restart): %v", err)
	}
	eng2, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	defer eng2.Kill()
	if err := ck2.Checkpoint(eng2, 0); err != nil {
		t.Fatalf("Checkpoint (restart): %v", err)
	}
	if got := ck2.Stats().Gen; got != st.Gen+1 {
		t.Fatalf("restarted checkpointer wrote generation %d, want %d", got, st.Gen+1)
	}
}

// TestTrigger pins the due rule the feeders share: a feeder's share of the
// record cadence is rounded up, so n feeders between them never let more
// than EveryRecords pass; the clock trigger compares against the instant the
// last Rearm fixed; and without a checkpointer nothing ever fires.
func TestTrigger(t *testing.T) {
	var none *stream.Checkpointer
	idle := none.NewTrigger(4)
	now := time.Now()
	for i := 0; i < 100; i++ {
		if idle.Tick(now.Add(time.Duration(i) * time.Hour)) {
			t.Fatal("a trigger without a checkpointer fired")
		}
	}

	ck, err := stream.NewCheckpointer(stream.CheckpointConfig{Dir: t.TempDir(), EveryRecords: 10, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for feeders, want := range map[int]int{1: 10, 3: 4, 4: 3, 16: 1} {
		trig := ck.NewTrigger(feeders)
		n := 1
		for !trig.Tick(now) {
			n++
		}
		if n != want {
			t.Errorf("%d feeders: tripped after %d records, want %d", feeders, n, want)
		}
		if !trig.Due(now) {
			t.Errorf("%d feeders: no longer due before Rearm", feeders)
		}
		trig.Rearm(now)
		if trig.Due(now) || trig.Due(now.Add(59*time.Minute)) {
			t.Errorf("%d feeders: due right after Rearm", feeders)
		}
		if !trig.Due(now.Add(time.Hour)) {
			t.Errorf("%d feeders: not due an interval after Rearm", feeders)
		}
	}
}
