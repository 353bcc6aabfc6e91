package stream_test

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/experiments"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// testConfig is the shared small configuration of the property tests.
func testConfig() (dga.Spec, core.Config) {
	spec := experiments.ScaledSpec(dga.Murofet(), 0.1)
	return spec, core.Config{Family: spec, Seed: 7, EpochLen: testEpochLen}
}

// TestEmptyTrace: an engine that never sees a record must close cleanly
// into an empty landscape — no servers, no window, no retained state.
func TestEmptyTrace(t *testing.T) {
	_, coreCfg := testConfig()
	eng, err := stream.New(stream.Config{Core: coreCfg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := eng.Snapshot(); err != nil {
		t.Fatalf("Snapshot on empty engine: %v", err)
	}
	land, err := eng.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(land.Servers) != 0 || land.Total != 0 || land.MatchedLookups != 0 {
		t.Fatalf("empty engine produced a non-empty landscape: %+v", land)
	}
	stats := eng.Stats()
	if stats != (stream.Stats{Watermark: stats.Watermark}) {
		t.Fatalf("empty engine has non-zero stats: %+v", stats)
	}
}

// TestSingleRecord: one matched record must chart exactly as the batch
// pipeline charts it.
func TestSingleRecord(t *testing.T) {
	spec, coreCfg := testConfig()
	pool := spec.Pool.PoolFor(coreCfg.Seed, 0)
	delivered := trace.Observed{{T: 1234, Server: "local-a", Domain: pool.Domains[0]}}
	want := runBatch(t, coreCfg, delivered)
	got, stats := runStream(t, stream.Config{Core: coreCfg}, delivered)
	requireEqualLandscapes(t, want, got)
	if stats.Matched != 1 || stats.DroppedLate != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if len(got.Servers) != 1 || got.Servers[0].MatchedLookups != 1 {
		t.Fatalf("landscape: %+v", got)
	}
}

// TestEpochBoundaryRecords: records at the exact first and last instants of
// each epoch must land in the same epoch cell as the batch grid puts them
// (epochs are half-open: T = k·δe opens epoch k).
func TestEpochBoundaryRecords(t *testing.T) {
	spec, coreCfg := testConfig()
	var delivered trace.Observed
	for ep := 0; ep < 3; ep++ {
		pool := spec.Pool.PoolFor(coreCfg.Seed, ep)
		start := sim.Time(ep) * testEpochLen
		delivered = append(delivered,
			trace.ObservedRecord{T: start, Server: "local-a", Domain: pool.Domains[0]},
			trace.ObservedRecord{T: start, Server: "local-b", Domain: pool.Domains[1]},
			trace.ObservedRecord{T: start + testEpochLen - 1, Server: "local-a", Domain: pool.Domains[2]},
		)
	}
	delivered.Sort()
	want := runBatch(t, coreCfg, delivered)
	got, stats := runStream(t, stream.Config{Core: coreCfg}, delivered)
	requireEqualLandscapes(t, want, got)
	if stats.Matched != uint64(len(delivered)) {
		t.Fatalf("matched %d of %d boundary records", stats.Matched, len(delivered))
	}
	for _, sv := range got.Servers {
		if len(sv.PerEpoch) != 3 {
			t.Fatalf("%s spans %d epochs, want 3", sv.Server, len(sv.PerEpoch))
		}
	}
}

// TestDuplicateTimestamps: ties are the documented hazard of streaming
// (arrival order breaks them). The contract is that stream emission keeps
// arrival order for equal timestamps — the exact stable sort the batch
// runs — so even a trace that is ALL ties must agree bit-for-bit.
func TestDuplicateTimestamps(t *testing.T) {
	spec, coreCfg := testConfig()
	pool := spec.Pool.PoolFor(coreCfg.Seed, 0)
	var delivered trace.Observed
	for i := 0; i < 200; i++ {
		delivered = append(delivered, trace.ObservedRecord{
			T:      sim.Time(5000 + 100*(i%3)), // three distinct instants, heavily duplicated
			Server: serverName(i % 4),
			Domain: pool.Domains[i%pool.Size()],
		})
	}
	want := runBatch(t, coreCfg, delivered)
	got, stats := runStream(t, stream.Config{Core: coreCfg, Shards: 3}, delivered)
	requireEqualLandscapes(t, want, got)
	if stats.DroppedLate != 0 || stats.ReorderEvictions != 0 {
		t.Fatalf("ties must not be dropped: %+v", stats)
	}
}

// TestReorderOverflow: a buffer stuffed past MaxReorder must degrade
// gracefully — forced emissions are counted, nothing panics, no record is
// silently lost, and the watermark stays monotone.
func TestReorderOverflow(t *testing.T) {
	spec, coreCfg := testConfig()
	pool := spec.Pool.PoolFor(coreCfg.Seed, 0)
	// Identical timestamps never advance the watermark, so every record
	// accumulates in the buffer until it overflows.
	var delivered trace.Observed
	for i := 0; i < 100; i++ {
		delivered = append(delivered, trace.ObservedRecord{
			T: 1000, Server: "local-a", Domain: pool.Domains[i%pool.Size()],
		})
	}
	eng, err := stream.New(stream.Config{Core: coreCfg, Shards: 1, MaxReorder: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, rec := range delivered {
		if err := eng.Observe(rec); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	land, err := eng.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	stats := eng.Stats()
	if stats.ReorderEvictions == 0 {
		t.Fatal("overflow did not evict")
	}
	// Conservation: every accepted matched record reaches the landscape —
	// eviction force-emits, it never discards.
	if got, want := land.MatchedLookups, int(stats.Matched-stats.DroppedLate); got != want {
		t.Fatalf("conservation violated: %d charted, %d accepted", got, want)
	}
	if stats.Retained != 0 {
		t.Fatalf("%d records retained after Close", stats.Retained)
	}
}

// TestLateRecordsDropped: records arriving behind the watermark are counted
// drops, never panics, never regressions. The watermark (single shard, so
// the global view IS the shard view) must be monotone throughout.
func TestLateRecordsDropped(t *testing.T) {
	spec, coreCfg := testConfig()
	pool := spec.Pool.PoolFor(coreCfg.Seed, 0)
	const window = 2 * sim.Second
	eng, err := stream.New(stream.Config{Core: coreCfg, Shards: 1, ReorderWindow: window})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Descending timestamps spaced wider than the reorder window: the
	// first record pins the watermark, everything after is late.
	lastWM := sim.Time(-1 << 62)
	for i := 0; i < 50; i++ {
		rec := trace.ObservedRecord{
			T:      sim.Time(10*sim.Minute) - sim.Time(i)*2*window,
			Server: "local-a",
			Domain: pool.Domains[i%pool.Size()],
		}
		if err := eng.Observe(rec); err != nil {
			t.Fatalf("Observe: %v", err)
		}
		stats := eng.Stats()
		if stats.WatermarkValid {
			if stats.Watermark < lastWM {
				t.Fatalf("watermark regressed: %d → %d", lastWM, stats.Watermark)
			}
			lastWM = stats.Watermark
		}
	}
	land, err := eng.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	stats := eng.Stats()
	if stats.DroppedLate != 49 {
		t.Fatalf("want 49 late drops, got %d", stats.DroppedLate)
	}
	if land.MatchedLookups != 1 {
		t.Fatalf("only the first record should chart, got %d", land.MatchedLookups)
	}
}

// TestEngineLifecycle: Observe after Close fails, double Close fails, and a
// non-epoch-aligned pinned window is rejected at construction.
func TestEngineLifecycle(t *testing.T) {
	_, coreCfg := testConfig()
	eng, err := stream.New(stream.Config{Core: coreCfg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.Observe(trace.ObservedRecord{Server: "x", Domain: "y"}); err == nil {
		t.Fatal("Observe after Close succeeded")
	}
	if _, err := eng.Close(); err == nil {
		t.Fatal("double Close succeeded")
	}
	_, err = stream.New(stream.Config{
		Core:   coreCfg,
		Window: sim.Window{Start: 0, End: testEpochLen + 1},
	})
	if err == nil || !strings.Contains(err.Error(), "epoch-aligned") {
		t.Fatalf("misaligned window accepted: %v", err)
	}
}

// TestLandscapeJSON: the /landscape payload round-trips through the stable
// core schema.
func TestLandscapeJSON(t *testing.T) {
	spec, coreCfg := testConfig()
	pool := spec.Pool.PoolFor(coreCfg.Seed, 0)
	eng, err := stream.New(stream.Config{Core: coreCfg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := eng.Observe(trace.ObservedRecord{T: 42, Server: "local-a", Domain: pool.Domains[0]}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	body, err := eng.LandscapeJSON()
	if err != nil {
		t.Fatalf("LandscapeJSON: %v", err)
	}
	for _, want := range []string{`"family"`, `"servers"`, `"local-a"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("payload missing %s:\n%s", want, body)
		}
	}
}

// TestExportInvariants holds the engine to what a cut must look like however
// the shard got there — it no longer walks its cells per record, so nothing
// else says the walk's results are still there. Random traces (1–64 servers,
// 2–3 epochs, shuffled inside the reorder window; MP, MB and MT, second
// opinion on and off) are cut at random points, and at every cut:
//
//	(a) no exported candidate, primary or second opinion, has
//	    First + MaxDuration ≤ its shard's watermark;
//	(b) no open cell lies in an epoch the watermark has passed entirely,
//	    and exactly the servers with an emitted record are exported;
//	(c) a Restore of the export exports the same bytes, and still does
//	    after both engines took the records up to the next cut — the close
//	    mark and the expiry queue are rebuilt, not assumed.
func TestExportInvariants(t *testing.T) {
	const reorderWindow = 5 * sim.Second
	for i, tc := range diffCases() {
		for _, second := range []bool{false, true} {
			label := uint64(2 * i)
			if second {
				label++
			}
			rng := sim.SplitFrom(0x1417, label)
			t.Run(fmt.Sprintf("%s/second=%v", tc.name, second), func(t *testing.T) {
				servers, epochs := 1+rng.IntN(64), 2+rng.IntN(2)
				seed := rng.Uint64()
				base := synthTrace(t, tc.spec, seed, servers, epochs, tc.activations)
				delivered := chunkShuffle(base, reorderWindow, rng)
				cfg := stream.Config{
					Core:          core.Config{Family: tc.spec, Seed: seed, EpochLen: testEpochLen, SecondOpinion: second},
					Shards:        1 + rng.IntN(3),
					ReorderWindow: reorderWindow,
				}
				if tc.estimators != nil {
					cfg.Core.Estimators = tc.estimators()
				}
				matchers := core.NewEpochMatchers(nil, dga.NewPoolCache(tc.spec.Pool, seed, nil))

				live, err := stream.New(cfg)
				if err != nil {
					t.Fatalf("stream.New: %v", err)
				}
				defer live.Kill()
				var twin *stream.Engine // restored from the previous cut, fed in step
				defer func() {
					if twin != nil {
						twin.Kill()
					}
				}()
				cuts := make([]int, 3+rng.IntN(3))
				for c := range cuts {
					cuts[c] = 1 + rng.IntN(len(delivered))
				}
				sort.Ints(cuts)
				fed := 0
				for _, cut := range cuts {
					for ; fed < cut; fed++ {
						if err := live.Observe(delivered[fed]); err != nil {
							t.Fatalf("Observe: %v", err)
						}
						if twin != nil {
							if err := twin.Observe(delivered[fed]); err != nil {
								t.Fatalf("Observe (restored): %v", err)
							}
						}
					}
					st, data := exportBytes(t, live)
					if twin != nil {
						if _, got := exportBytes(t, twin); !bytes.Equal(got, data) {
							t.Fatalf("cut %d: the engine restored at the previous cut diverged", cut)
						}
						twin.Kill()
					}
					checkCut(t, st, delivered[:fed], matchers, tc.spec.MaxDuration())
					restoreCfg := cfg
					restoreCfg.Shards = 0
					if twin, err = stream.Restore(restoreCfg, st); err != nil {
						t.Fatalf("Restore: %v", err)
					}
					if _, got := exportBytes(t, twin); !bytes.Equal(got, data) {
						t.Fatalf("cut %d: restore→export changed the state bytes", cut)
					}
				}
			})
		}
	}
}

func exportBytes(t *testing.T, eng *stream.Engine) (*stream.EngineState, []byte) {
	t.Helper()
	st, err := eng.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	data, err := stream.EncodeCheckpoint(st)
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	return st, data
}

// checkCut asserts invariants (a) and (b) of TestExportInvariants on one export
// taken after exactly the records in fed.
func checkCut(t *testing.T, st *stream.EngineState, fed trace.Observed, matchers *core.EpochMatchers, maxDuration sim.Time) {
	t.Helper()
	// A matched record is in the reorder buffer or has been emitted: the
	// traces are loss-free by construction.
	type key struct {
		t              sim.Time
		server, domain string
	}
	buffered := map[key]int{}
	for _, sh := range st.Shards {
		if sh.Stats.DroppedLate != 0 || sh.Stats.ReorderEvictions != 0 {
			t.Fatalf("delivery was supposed to be loss-free: %+v", sh.Stats)
		}
		for _, en := range sh.Buffer {
			buffered[key{en.T, en.Server, en.Domain}]++
		}
	}
	// emitted holds the servers with at least one emitted record.
	emitted := map[string]bool{}
	for _, rec := range fed {
		if _, ok := matchers.For(int(rec.T / testEpochLen)).Resolve(rec); !ok {
			continue
		}
		if k := (key{rec.T, rec.Server, rec.Domain}); buffered[k] > 0 {
			buffered[k]--
			continue
		}
		emitted[rec.Server] = true
	}
	seen := 0
	for i, sh := range st.Shards {
		wm := sim.Time(sh.Watermark)
		for _, sv := range sh.Servers {
			seen++
			if !emitted[sv.Name] {
				t.Fatalf("%s is exported without an emitted record", sv.Name)
			}
			for _, cell := range sv.Open {
				if sh.Watermark != math.MinInt64 && wm >= 0 && cell.Epoch <= int(wm/testEpochLen)-1 {
					t.Fatalf("shard %d %s: epoch %d still open at watermark %v", i, sv.Name, cell.Epoch, wm)
				}
				for _, es := range cell.States {
					if es.Timing == nil {
						continue
					}
					for _, cand := range es.Timing.Active {
						if cand.First+maxDuration <= wm {
							t.Fatalf("shard %d %s epoch %d: candidate first=%v outlived watermark %v",
								i, sv.Name, cell.Epoch, cand.First, wm)
						}
					}
				}
			}
		}
	}
	if seen != len(emitted) {
		t.Fatalf("%d servers exported, %d have emitted records", seen, len(emitted))
	}
}
