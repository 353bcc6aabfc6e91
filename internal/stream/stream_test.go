package stream_test

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/estimators"
	"botmeter/internal/experiments"
	"botmeter/internal/faults"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// testEpochLen keeps the synthetic traces small: three one-hour epochs
// instead of three days.
const testEpochLen = sim.Hour

// synthTrace builds a deterministic multi-server observable trace: for
// every epoch each server hosts a few bot activations drawing real barrels
// from the family's rotating pool (so the records genuinely match), plus
// background noise lookups that match nothing. The result is sorted by
// timestamp — the canonical in-order delivery.
func synthTrace(tb testing.TB, spec dga.Spec, seed uint64, servers, epochs, activations int) trace.Observed {
	tb.Helper()
	var out trace.Observed
	for ep := 0; ep < epochs; ep++ {
		pool := spec.Pool.PoolFor(seed, ep)
		if pool.Size() == 0 {
			tb.Fatalf("epoch %d: empty pool", ep)
		}
		epochStart := sim.Time(ep) * testEpochLen
		for sv := 0; sv < servers; sv++ {
			name := serverName(sv)
			rng := sim.SplitFrom(seed, uint64(ep)*1_000_003+uint64(sv))
			for a := 0; a < activations; a++ {
				margin := testEpochLen - spec.MaxDuration()
				if margin <= 0 {
					tb.Fatalf("activation duration %v exceeds epoch %v", spec.MaxDuration(), testEpochLen)
				}
				start := epochStart + sim.Time(rng.Int64N(int64(margin)))
				positions := dga.ExecuteBarrel(pool, spec.Barrel.Barrel(pool, spec.ThetaQ, rng))
				t := start
				for _, pos := range positions {
					out = append(out, trace.ObservedRecord{T: t, Server: name, Domain: pool.Domains[pos]})
					t += spec.Interval(rng)
				}
			}
			// Noise: lookups outside the pool, interleaved with the botnet
			// traffic. They must count as unmatched in the stream and be
			// ignored by the batch matcher alike.
			for n := 0; n < 5; n++ {
				out = append(out, trace.ObservedRecord{
					T:      epochStart + sim.Time(rng.Int64N(int64(testEpochLen))),
					Server: name,
					Domain: "benign-lookup.example.org",
				})
			}
		}
	}
	out.Sort()
	return out
}

func serverName(i int) string {
	return "local-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// chunkShuffle shuffles records within contiguous chunks whose timestamp
// span stays within the reorder window. Any such permutation is guaranteed
// loss-free: when a record r arrives, every already-arrived record has
// T ≤ chunkMax ≤ r.T + window, so the watermark (maxT − window) can never
// strictly exceed r.T.
func chunkShuffle(in trace.Observed, window sim.Time, rng *sim.RNG) trace.Observed {
	out := make(trace.Observed, len(in))
	copy(out, in)
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j].T-out[i].T <= window {
			j++
		}
		chunk := out[i:j]
		rng.Shuffle(len(chunk), func(a, b int) { chunk[a], chunk[b] = chunk[b], chunk[a] })
		i = j
	}
	return out
}

// faultSequence applies mid-stream faults to a sorted trace with a
// deterministic injector: loss drops records, duplication delivers them
// twice, delay perturbs the ARRIVAL order (timestamps are untouched — the
// vantage point stamps at capture). With injected delay ≤ the reorder
// window the delivered sequence is loss-free by the same argument as
// chunkShuffle, so batch analysis of the delivered records must equal the
// streamed landscape exactly.
func faultSequence(in trace.Observed, inj *faults.Injector) trace.Observed {
	type arrival struct {
		at  sim.Time
		seq int
		rec trace.ObservedRecord
	}
	var items []arrival
	for _, rec := range in {
		if inj.Drop() {
			continue
		}
		copies := 1
		if inj.Duplicate() {
			copies = 2
		}
		for c := 0; c < copies; c++ {
			items = append(items, arrival{at: rec.T + inj.Delay(), seq: len(items), rec: rec})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].at != items[j].at {
			return items[i].at < items[j].at
		}
		return items[i].seq < items[j].seq
	})
	out := make(trace.Observed, len(items))
	for i, it := range items {
		out[i] = it.rec
	}
	return out
}

// analysisWindow derives the epoch-aligned window around a delivered
// sequence, exactly as cmd/botmeter does.
func analysisWindow(recs trace.Observed, epochLen sim.Time) sim.Window {
	minT, maxT := recs[0].T, recs[0].T
	for _, r := range recs {
		if r.T < minT {
			minT = r.T
		}
		if r.T > maxT {
			maxT = r.T
		}
	}
	return sim.Window{Start: (minT / epochLen) * epochLen, End: (maxT/epochLen + 1) * epochLen}
}

// runBatch charts the delivered sequence with the reference pipeline.
func runBatch(tb testing.TB, coreCfg core.Config, delivered trace.Observed) *core.Landscape {
	tb.Helper()
	bm, err := core.New(coreCfg)
	if err != nil {
		tb.Fatalf("core.New: %v", err)
	}
	land, err := bm.Analyze(delivered, analysisWindow(delivered, coreCfg.EpochLen))
	if err != nil {
		tb.Fatalf("Analyze: %v", err)
	}
	return land
}

// runStream feeds the delivered sequence through the engine from a single
// producer (delivery order is part of the contract) while a second
// goroutine concurrently polls Stats and Snapshot — the -race coverage of
// the read paths. Returns the final landscape and the closing stats.
func runStream(tb testing.TB, cfg stream.Config, delivered trace.Observed) (*core.Landscape, stream.Stats) {
	tb.Helper()
	eng, err := stream.New(cfg)
	if err != nil {
		tb.Fatalf("stream.New: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			eng.Stats()
			if _, err := eng.Snapshot(); err != nil {
				tb.Errorf("concurrent Snapshot: %v", err)
				return
			}
			// A snapshot holds each shard's lock while it estimates the open
			// cells; without a gap the feeder gets one record in per poll.
			time.Sleep(time.Millisecond)
		}
	}()
	for _, rec := range delivered {
		if err := eng.Observe(rec); err != nil {
			tb.Fatalf("Observe: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	stats := eng.Stats()
	land, err := eng.Close()
	if err != nil {
		tb.Fatalf("Close: %v", err)
	}
	_ = stats
	final := eng.Stats()
	return land, final
}

// requireEqualLandscapes asserts the batch↔stream contract: identical
// server ranking and bit-identical per-server figures (the same code paths
// run on the same sorted observations). Total is summed in a different
// order by the two pipelines, so it gets an epsilon.
func requireEqualLandscapes(tb testing.TB, want, got *core.Landscape) {
	tb.Helper()
	if want.Estimator != got.Estimator {
		tb.Fatalf("estimator: batch %q stream %q", want.Estimator, got.Estimator)
	}
	if want.Window != got.Window {
		tb.Fatalf("window: batch %v stream %v", want.Window, got.Window)
	}
	if want.MatchedLookups != got.MatchedLookups {
		tb.Fatalf("matched lookups: batch %d stream %d", want.MatchedLookups, got.MatchedLookups)
	}
	if len(want.Servers) != len(got.Servers) {
		tb.Fatalf("server count: batch %d stream %d", len(want.Servers), len(got.Servers))
	}
	for i := range want.Servers {
		w, g := want.Servers[i], got.Servers[i]
		if w.Server != g.Server {
			tb.Fatalf("rank %d: batch %q stream %q", i, w.Server, g.Server)
		}
		if w.Population != g.Population {
			tb.Fatalf("%s population: batch %v stream %v", w.Server, w.Population, g.Population)
		}
		if w.SecondOpinion != g.SecondOpinion {
			tb.Fatalf("%s second opinion: batch %v stream %v", w.Server, w.SecondOpinion, g.SecondOpinion)
		}
		if w.MatchedLookups != g.MatchedLookups {
			tb.Fatalf("%s matched lookups: batch %d stream %d", w.Server, w.MatchedLookups, g.MatchedLookups)
		}
		if len(w.PerEpoch) != len(g.PerEpoch) {
			tb.Fatalf("%s per-epoch length: batch %d stream %d", w.Server, len(w.PerEpoch), len(g.PerEpoch))
		}
		for ep := range w.PerEpoch {
			if w.PerEpoch[ep] != g.PerEpoch[ep] {
				tb.Fatalf("%s epoch %d: batch %v stream %v", w.Server, ep, w.PerEpoch[ep], g.PerEpoch[ep])
			}
		}
	}
	if math.Abs(want.Total-got.Total) > 1e-9*math.Max(1, math.Abs(want.Total)) {
		tb.Fatalf("total: batch %v stream %v", want.Total, got.Total)
	}
}

// diffCase is one estimator configuration of the differential test.
type diffCase struct {
	name          string
	spec          dga.Spec
	estimators    func() []estimators.Estimator // nil = taxonomy selection
	secondOpinion bool
	activations   int
}

func diffCases() []diffCase {
	return []diffCase{
		{
			// Poisson (MP): activation clusters, insensitive to tie order.
			// Second opinion ON, so an MT stream runs beside the primary.
			name:          "MP-murofet",
			spec:          experiments.ScaledSpec(dga.Murofet(), 0.1),
			secondOpinion: true,
			activations:   3,
		},
		{
			// Bernoulli (MB): the distinct (TTL-bucket, position) set.
			name:        "MB-newgoz",
			spec:        experiments.ScaledSpec(dga.NewGoZ(), 0.1),
			activations: 3,
		},
		{
			// Timing (MT) as the primary estimator: candidates with expiry.
			name:        "MT-murofet",
			spec:        experiments.ScaledSpec(dga.Murofet(), 0.1),
			estimators:  func() []estimators.Estimator { return []estimators.Estimator{estimators.NewTiming()} },
			activations: 3,
		},
		{
			// Coverage inversion (MB-C): MB's set, read by bucket size. Each
			// estimate is a bisection over the whole pool, so a smaller one.
			name:        "MB-C-newgoz",
			spec:        experiments.ScaledSpec(dga.NewGoZ(), 0.025),
			estimators:  func() []estimators.Estimator { return []estimators.Estimator{estimators.NewCoverage()} },
			activations: 3,
		},
		{
			// Naive count (NC): MP's clusters, counted.
			name:        "NC-murofet",
			spec:        experiments.ScaledSpec(dga.Murofet(), 0.1),
			estimators:  func() []estimators.Estimator { return []estimators.Estimator{estimators.NewNaive()} },
			activations: 3,
		},
		{
			// A set of three: MP, NC and MT run through one walk, so every
			// cell holds three streams and every closed epoch three values.
			name: "set-murofet",
			spec: experiments.ScaledSpec(dga.Murofet(), 0.1),
			estimators: func() []estimators.Estimator {
				return []estimators.Estimator{estimators.NewPoisson(), estimators.NewNaive(), estimators.NewTiming()}
			},
			activations: 3,
		},
	}
}

// TestBatchStreamEquivalence is the engine's defining contract (DESIGN.md
// §13): streaming a trace — in order, shuffled within the reorder window,
// or subjected to mid-stream loss/duplication/delay faults — yields the
// same landscape core.Analyze computes over the delivered records. The
// comparison is exact (bit-identical per-server estimates): the stream
// emits records sorted by (timestamp, arrival), which is precisely the
// stable sort batch evaluation performs, and every estimator but MT is
// insensitive to tie order altogether. Memory must stay bounded for every
// estimator: the engine retains records in its reorder buffers only, so its
// peak retention is a function of the reorder window, not of how many
// records an open epoch has seen.
func TestBatchStreamEquivalence(t *testing.T) {
	const (
		seed          = uint64(0xB07)
		servers       = 20
		epochs        = 3
		reorderWindow = 5 * sim.Second
	)
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			base := synthTrace(t, tc.spec, seed, servers, epochs, tc.activations)
			if len(base) < 1000 {
				t.Fatalf("trace too small for a meaningful differential: %d records", len(base))
			}
			variants := []struct {
				name      string
				delivered trace.Observed
			}{
				{"in-order", base},
				{"shuffled", chunkShuffle(base, reorderWindow, sim.NewRNG(seed+1))},
				{"faulted", faultSequence(base, faults.New(seed+2, faults.Rates{
					Loss:      0.05,
					Duplicate: 0.03,
					Delay:     reorderWindow, // ≤ reorder window ⇒ loss-free
				}))},
			}
			for _, v := range variants {
				// Shard count must be invisible in the estimates: a single
				// shard exercises the purely sequential incremental kernels,
				// four shards the same kernels under server-hash fan-out.
				for _, shards := range []int{1, 4} {
					shards := shards
					t.Run(fmt.Sprintf("%s/shards=%d", v.name, shards), func(t *testing.T) {
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
							coreCfg.Estimators = tc.estimators()
							streamCfg.Core.Estimators = tc.estimators()
						}
						want := runBatch(t, coreCfg, v.delivered)
						got, stats := runStream(t, streamCfg, v.delivered)
						if stats.DroppedLate != 0 || stats.ReorderEvictions != 0 {
							t.Fatalf("delivery was supposed to be loss-free: %d late drops, %d evictions",
								stats.DroppedLate, stats.ReorderEvictions)
						}
						if stats.Ingested != uint64(len(v.delivered)) {
							t.Fatalf("ingested %d of %d records", stats.Ingested, len(v.delivered))
						}
						if stats.Matched == 0 || stats.Unmatched == 0 {
							t.Fatalf("degenerate trace: matched=%d unmatched=%d", stats.Matched, stats.Unmatched)
						}
						requireEqualLandscapes(t, want, got)

						// Bounded memory: a cell keeps a statistic, so only the
						// reorder buffers retain records — a tenth of what one
						// epoch delivers would already mean epochs are buffered.
						if perEpoch := int(stats.Matched) / epochs; stats.PeakRetained*10 > perEpoch {
							t.Fatalf("%s peak retention %d vs %d matched records an epoch — engine is buffering epochs",
								tc.name, stats.PeakRetained, perEpoch)
						}
						if stats.Retained != 0 {
							t.Fatalf("%d records still retained after Close", stats.Retained)
						}
						if stats.EpochsClosed == 0 {
							t.Fatal("no epochs were closed")
						}
					})
				}
			}
		})
	}
}

// TestEnginesSharePools: a pool is a function of (model, seed, epoch), so the
// holders a process keeps alive side by side — the live engine, the engine
// restored from its state, the engine restored from the merged state and a
// batch pass — generate each epoch's pool once between them, and nothing
// stays alive once they are gone.
func TestEnginesSharePools(t *testing.T) {
	tc := diffCases()[0]
	const seed = 0x9001 // no other test's engines hold this seed's pools
	delivered := synthTrace(t, tc.spec, seed, 4, 3, tc.activations)
	cfg := stream.Config{
		Core:    core.Config{Family: tc.spec, Seed: seed, EpochLen: testEpochLen, SecondOpinion: tc.secondOpinion},
		Shards:  2,
		Vantage: "solo",
	}
	before := dga.PoolsBuilt()
	live, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	for _, rec := range delivered {
		if err := live.Observe(rec); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	st, err := live.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	alone := dga.PoolsBuilt() - before
	if alone == 0 {
		t.Fatal("the live engine built no pool")
	}

	restored, err := stream.Restore(cfg, st)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	merged, err := stream.MergeStates(st)
	if err != nil {
		t.Fatalf("MergeStates: %v", err)
	}
	federated, err := stream.Restore(cfg, merged)
	if err != nil {
		t.Fatalf("Restore(merged): %v", err)
	}
	for _, eng := range []*stream.Engine{restored, federated} {
		if err := eng.Quiesce(); err != nil {
			t.Fatalf("Quiesce: %v", err)
		}
		if _, err := eng.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
	}
	runBatch(t, cfg.Core, delivered)
	if together := dga.PoolsBuilt() - before; together != alone {
		t.Fatalf("four holders built %d pools, the first alone %d", together, alone)
	}

	for _, eng := range []*stream.Engine{live, restored, federated} {
		eng.Kill()
	}
	live, restored, federated = nil, nil, nil
	for i := 0; dga.PoolsLive() > 0; i++ {
		if i == 20 {
			t.Fatalf("%d pools alive after every engine was killed and 20 collections", dga.PoolsLive())
		}
		runtime.GC()
	}
}
