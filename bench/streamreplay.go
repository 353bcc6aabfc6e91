package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// Shape of the stream-replay traces. Per family: servers × day-epochs ×
// activations of real barrels from the family's rotating pool, plus noise
// lookups that match nothing. The issue's 32 × 3 × 20 + 2000 was sized for a
// 20 s run; the contract's time cap leaves about 16 s, and the run needs many
// short passes to find the undisturbed ones (see calmCost), so the trace is a
// twentieth of that and a family's ingest takes about a tenth of a second.
const (
	replayServers     = 16
	replayEpochs      = 3
	replayActivations = 3
	replayNoise       = 500
	replayVantages    = 8
	replayReads       = 8 // snapshots and checkpoints taken per ingest
	replayReorder     = 5 * sim.Second
)

// replayFamily is one trace with the estimator the taxonomy picks for it.
type replayFamily struct {
	key       string // metric suffix: mp, mb, mt
	estimator string
	spec      dga.Spec
	delivered trace.Observed // chunk-shuffled inside the reorder window
	window    sim.Window
	vantages  [][]byte // encoded per-vantage states, made on the first pass
}

func replayFamilies() []*replayFamily {
	return []*replayFamily{
		{key: "mp", estimator: "MP", spec: dga.Murofet()},
		{key: "mb", estimator: "MB", spec: dga.NewGoZ()},
		{key: "mt", estimator: "MT", spec: dga.ConfickerC()},
	}
}

// synthTrace builds a family's trace from the seed: bot activations whose
// lookups genuinely match the epoch's pool, and noise that does not.
func synthTrace(spec dga.Spec, seed uint64, servers, epochs, activations, noise int) (trace.Observed, error) {
	margin := sim.Day - spec.MaxDuration()
	if margin <= 0 {
		return nil, fmt.Errorf("%s: an activation (%v) does not fit in a day", spec.Name, spec.MaxDuration())
	}
	var out trace.Observed
	for ep := 0; ep < epochs; ep++ {
		pool := spec.Pool.PoolFor(seed, ep)
		if pool.Size() == 0 {
			return nil, fmt.Errorf("%s: epoch %d has an empty pool", spec.Name, ep)
		}
		epochStart := sim.Time(ep) * sim.Day
		for sv := 0; sv < servers; sv++ {
			name := fmt.Sprintf("local-%02d", sv)
			rng := sim.SplitFrom(seed, uint64(ep)*1_000_003+uint64(sv))
			for a := 0; a < activations; a++ {
				t := epochStart + sim.Time(rng.Int64N(int64(margin)))
				for _, pos := range dga.ExecuteBarrel(pool, spec.Barrel.Barrel(pool, spec.ThetaQ, rng)) {
					out = append(out, trace.ObservedRecord{T: t, Server: name, Domain: pool.Domains[pos]})
					t += spec.Interval(rng)
				}
			}
			for n := 0; n < noise; n++ {
				out = append(out, trace.ObservedRecord{
					T:      epochStart + sim.Time(rng.Int64N(int64(sim.Day))),
					Server: name,
					Domain: fmt.Sprintf("noise-%d-%d.example.org", sv, n),
				})
			}
		}
	}
	out.Sort()
	return out, nil
}

// chunkShuffle shuffles records inside contiguous chunks whose timestamps
// span at most window, so the engine's reorder heap has work to do and no
// record can arrive behind the watermark.
func chunkShuffle(in trace.Observed, window sim.Time, rng *sim.RNG) trace.Observed {
	out := append(trace.Observed(nil), in...)
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

func vantageOf(server string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(server))
	return int(h.Sum32() % uint32(n))
}

func landscapeJSON(l *core.Landscape) ([]byte, error) {
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replaySetup generates the three traces.
func replaySetup(e *env, scale int) ([]*replayFamily, error) {
	fams := replayFamilies()
	for i, f := range fams {
		base, err := synthTrace(f.spec, e.seed, replayServers/scale, replayEpochs, max(replayActivations/scale, 1), replayNoise/scale)
		if err != nil {
			return nil, err
		}
		f.delivered = chunkShuffle(base, replayReorder, sim.NewRNG(e.seed+uint64(i)+1))
		f.window = sim.Window{Start: 0, End: sim.Time(replayEpochs) * sim.Day}
	}
	return fams, nil
}

// samples collects timings by name, in seconds unless the name says else.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (f *replayFamily) config(seed uint64, vantage string) stream.Config {
	return stream.Config{
		Core:          core.Config{Family: f.spec, Seed: seed},
		ReorderWindow: replayReorder,
		Vantage:       vantage,
	}
}

// replayOnce drives one family's trace through the engine with reads beside
// the writes, then through recovery, federation and the batch pipeline,
// checking that all four agree byte for byte. Every sample is filed under
// name.<family>.
func (f *replayFamily) replayOnce(e *env, tr *tracer, s samples, out *outcome, dir string) error {
	add := func(name string, d time.Duration) { s.add(name+"."+f.key, d.Seconds()) }
	cfg := f.config(e.seed, "")
	eng, err := stream.New(cfg)
	if err != nil {
		return err
	}
	defer eng.Kill() // no-op after Close
	if got := eng.EstimatorName(); got != f.estimator {
		return fmt.Errorf("%s: taxonomy picked %s, want %s", f.spec.Name, got, f.estimator)
	}
	ck, err := stream.NewCheckpointer(stream.CheckpointConfig{Dir: dir})
	if err != nil {
		return err
	}
	n := len(f.delivered)
	every := max(n/replayReads, 1)
	// The k-th read finds the same engine state on every pass, so each read
	// is filed under its own position: name.<family>.<k>.
	read := func(name string, i int, d time.Duration) {
		s.add(fmt.Sprintf("%s.%s.%d", name, f.key, (i+1)/every), d.Seconds())
	}
	ingest, err := tr.timed("stream.ingest."+f.key, func() error {
		for i, rec := range f.delivered {
			if err := eng.Observe(rec); err != nil {
				return err
			}
			if (i+1)%every != 0 {
				continue
			}
			// The checkpoint goes first: its export waits until the shards
			// have taken in every record handed over, so the snapshot after
			// it times the snapshot and not, at random, the tail of a queue.
			if tr != nil {
				// The traced run also times the checkpoint's two in-memory
				// steps on their own; the write is the remainder.
				var st *stream.EngineState
				d, err := tr.timed("stream.export_state", func() (err error) {
					st, err = eng.ExportState()
					return err
				})
				if err != nil {
					return err
				}
				read("export", i, d)
				d, err = tr.timed("stream.encode_checkpoint", func() error {
					_, err := stream.EncodeCheckpoint(st)
					return err
				})
				if err != nil {
					return err
				}
				read("encode", i, d)
			}
			d, err := tr.timed("stream.checkpoint", func() error { return ck.Checkpoint(eng, uint64(i+1)) })
			if err != nil {
				return err
			}
			read("checkpoint", i, d)
			d, err = tr.timed("stream.landscape_json", func() error {
				_, err := eng.LandscapeJSON()
				return err
			})
			if err != nil {
				return err
			}
			read("snapshot", i, d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("ingest", ingest)
	s.add("checkpoint_kb."+f.key, float64(ck.Stats().LastBytes)/1024)
	// The last checkpoint is the recovery input; take it with every record
	// consumed so the recovered engine can be compared with the live one.
	if n%every != 0 {
		if err := ck.Checkpoint(eng, uint64(n)); err != nil {
			return err
		}
	}
	if err := ck.Close(); err != nil {
		return err
	}
	s.add("shard_skew."+f.key, shardSkew(eng.ShardStats()))

	var final *core.Landscape
	d, err := tr.timed("stream.close", func() (err error) {
		final, err = eng.Close()
		return err
	})
	if err != nil {
		return err
	}
	add("drain", d)
	stats := eng.Stats()
	s.add("peak_retained."+f.key, float64(stats.PeakRetained))
	s.add("epochs_closed."+f.key, float64(stats.EpochsClosed))
	s.add("reorder_evictions", float64(stats.ReorderEvictions))
	s.add("dropped_late", float64(stats.DroppedLate))
	out.attempted += int64(n)
	lost := int64(n) - int64(stats.Ingested) + int64(stats.DroppedLate+stats.ReorderEvictions)
	out.failed += lost
	out.check(lost == 0, "%s: %d of %d records lost (ingested %d, late %d, evicted %d)",
		f.key, lost, n, stats.Ingested, stats.DroppedLate, stats.ReorderEvictions)
	want, err := landscapeJSON(final)
	if err != nil {
		return err
	}

	// Recovery: newest checkpoint → engine → quiesced landscape.
	var state *stream.EngineState
	d, err = tr.timed("stream.load_checkpoint", func() (err error) {
		var info stream.RecoveryInfo
		state, info, err = stream.LoadCheckpoint(dir)
		if err == nil && !info.Found {
			err = fmt.Errorf("no checkpoint found in %s", dir)
		}
		return err
	})
	if err != nil {
		return err
	}
	add("load", d)
	got, err := f.restoredLandscape(tr, add, cfg, state)
	if err != nil {
		return err
	}
	out.check(bytes.Equal(got, want), "%s: recovered landscape differs from the live engine's", f.key)

	// Federation: eight vantages' states decoded and merged.
	if f.vantages == nil {
		if f.vantages, err = f.vantageStates(e.seed); err != nil {
			return err
		}
	}
	states := make([]*stream.EngineState, len(f.vantages))
	d, err = tr.timed("stream.decode_checkpoint", func() error {
		for i, b := range f.vantages {
			var err error
			if states[i], err = stream.DecodeCheckpoint(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("decode", d)
	var merged *stream.EngineState
	d, err = tr.timed("stream.merge_states", func() (err error) {
		merged, err = stream.MergeStates(states...)
		return err
	})
	if err != nil {
		return err
	}
	add("merge_states", d)
	got, err = f.restoredLandscape(nil, nil, cfg, merged)
	if err != nil {
		return err
	}
	out.check(bytes.Equal(got, want), "%s: merged %d-vantage landscape differs from the single engine's", f.key, replayVantages)

	// Batch over the same delivered records.
	var stages *obs.StageSet
	if tr != nil {
		stages = obs.NewStageSet()
	}
	bm, err := core.New(core.Config{Family: f.spec, Seed: e.seed, Stages: stages})
	if err != nil {
		return err
	}
	var land *core.Landscape
	d, err = tr.timed("core.analyze."+f.key, func() (err error) {
		land, err = bm.Analyze(f.delivered, f.window)
		return err
	})
	if err != nil {
		return err
	}
	add("analyze", d)
	addStageSamples(s, stages, n)
	// Every per-server figure must be byte-equal. The total is a float sum
	// the engine takes shard by shard and the batch in server order, so with
	// more than one shard it may differ in the last place; the repository's
	// own batch↔stream contract allows it 1e-9.
	totalsAgree := math.Abs(land.Total-final.Total) <= 1e-9*math.Max(1, math.Abs(final.Total))
	land.Total = final.Total
	got, err = landscapeJSON(land)
	if err != nil {
		return err
	}
	out.check(totalsAgree && bytes.Equal(got, want), "%s: stream landscape differs from core.Analyze", f.key)
	return nil
}

// restoredLandscape restores state into a fresh engine, quiesces it and
// renders its snapshot. With add it files how long the two steps took.
func (f *replayFamily) restoredLandscape(tr *tracer, add func(string, time.Duration), cfg stream.Config, state *stream.EngineState) ([]byte, error) {
	cfg.Shards = 0 // adopt the state's shard count
	var eng *stream.Engine
	d, err := tr.timed("stream.restore", func() (err error) {
		eng, err = stream.Restore(cfg, state)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer eng.Kill()
	if add != nil {
		add("restore", d)
	}
	d, err = tr.timed("stream.quiesce", eng.Quiesce)
	if err != nil {
		return nil, err
	}
	if add != nil {
		add("quiesce", d)
	}
	land, err := eng.Snapshot()
	if err != nil {
		return nil, err
	}
	return landscapeJSON(land)
}

// vantageStates partitions the trace by forwarding server over the vantages,
// runs one engine per part and returns their encoded states: the input of
// the federation step.
func (f *replayFamily) vantageStates(seed uint64) ([][]byte, error) {
	parts := make([]trace.Observed, replayVantages)
	for _, rec := range f.delivered {
		v := vantageOf(rec.Server, replayVantages)
		parts[v] = append(parts[v], rec)
	}
	out := make([][]byte, replayVantages)
	for v, part := range parts {
		eng, err := stream.New(f.config(seed, fmt.Sprintf("vantage-%d", v)))
		if err != nil {
			return nil, err
		}
		for _, rec := range part {
			if err := eng.Observe(rec); err != nil {
				eng.Kill()
				return nil, err
			}
		}
		st, err := eng.ExportState()
		eng.Kill()
		if err != nil {
			return nil, err
		}
		if out[v], err = stream.EncodeCheckpoint(st); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// shardSkew is the busiest shard's share of ingested records over the mean.
func shardSkew(shards []stream.ShardStat) float64 {
	var total, most float64
	for _, s := range shards {
		total += float64(s.Ingested)
		most = max(most, float64(s.Ingested))
	}
	if total == 0 {
		return 0
	}
	return most * float64(len(shards)) / total
}

// addStageSamples turns a traced Analyze's stage table into samples: seconds
// in the match stage per record, and seconds per estimated epoch for each
// estimator.
func addStageSamples(s samples, stages *obs.StageSet, records int) {
	for _, st := range stages.Stats() {
		switch st.Name {
		case "match":
			s.add("match_per_record", st.Wall.Seconds()/float64(max(records, 1)))
		case "estimate:MP", "estimate:MB", "estimate:MT":
			s.add(st.Name, st.Wall.Seconds()/float64(max(st.Count, 1)))
		}
	}
}

// runStreamReplay is the stream-replay workload.
func runStreamReplay(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	var fams []*replayFamily
	setup, err := e.medianSetup(func() (err error) {
		fams, err = replaySetup(e, e.scale())
		return err
	})
	if err != nil {
		return nil, err
	}
	var records int
	for _, f := range fams {
		records += len(f.delivered)
	}
	fmt.Fprintf(e.log, "stream-replay: %d records in three traces\n", records)

	// Untraced and traced passes alternate in the traced run, so the two
	// sides of trace.overhead_ratio see the same machine state.
	plain, traced := samples{}, samples{}
	var passSeconds [2][]float64 // untraced, traced
	var rss float64
	start := time.Now()
	for pass := 0; ctx.Err() == nil; pass++ {
		tr, s, kind := (*tracer)(nil), plain, 0
		if e.tr != nil && pass%2 == 1 {
			tr, s, kind = e.tr, traced, 1
		}
		cpu0, passStart := selfCPU(), time.Now()
		for _, f := range fams {
			dir := filepath.Join(e.tmp, fmt.Sprintf("ckpt-%s-%d", f.key, pass))
			if err := f.replayOnce(e, tr, s, out, dir); err != nil {
				return nil, err
			}
		}
		took := time.Since(passStart)
		s.add("cpu_per_record", (selfCPU()-cpu0)/float64(records))
		if pass < rssPasses {
			rss = selfPeakRSSMB()
		}
		passSeconds[kind] = append(passSeconds[kind], took.Seconds())
		// Stop when another pass (and, traced, its partner) would overrun.
		left := e.seconds - time.Since(start).Seconds()
		if (e.tr == nil || kind == 1) && left < took.Seconds() {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Passes repeat the same work, so a family's number is the undisturbed
	// decile over passes (see calmCost). A cost of the workload is the mean
	// over the three families, so that each family's share shows in it; the
	// rates follow the issue and take the median family.
	cost := func(s samples, name string) float64 {
		var total float64
		for _, f := range fams {
			total += calmCost(s[name+"."+f.key])
		}
		return total / float64(len(fams))
	}
	// A read's cost in a family is the median over the reads of an ingest
	// of each read's decile over passes.
	readCost := func(s samples, name string) float64 {
		var total float64
		for _, f := range fams {
			var reads []float64
			for k := 1; k <= replayReads; k++ {
				if v := s[fmt.Sprintf("%s.%s.%d", name, f.key, k)]; len(v) > 0 {
					reads = append(reads, calmCost(v))
				}
			}
			total += median(reads)
		}
		return total / float64(len(fams))
	}
	level := func(name string) float64 {
		var per []float64
		for _, f := range fams {
			per = append(per, median(plain[name+"."+f.key]))
		}
		return median(per)
	}
	var ingestRates, analyzeRates []float64
	for _, f := range fams {
		n := float64(len(f.delivered))
		sec := calmCost(plain["ingest."+f.key])
		ingestRates = append(ingestRates, n/sec)
		analyzeRates = append(analyzeRates, n/calmCost(plain["analyze."+f.key]))
		out.set("stream.ingest_ns_per_record."+f.key, sec*1e9/n)
	}
	recordsPerS := median(ingestRates)
	snapshot := readCost(plain, "snapshot")
	load, restore, quiesce := cost(plain, "load"), cost(plain, "restore"), cost(plain, "quiesce")
	decode, mergeStates := cost(plain, "decode"), cost(plain, "merge_states")

	out.set("setup_s", setup)
	out.set("ops_per_s", recordsPerS)
	out.set("cpu_us_per_op", calmCost(plain["cpu_per_record"])*1e6)
	out.set("p50_us", snapshot*1e6)
	out.set("rss_mb", rss)

	out.set("records_per_s", recordsPerS)
	out.set("snapshot_ms", ms(snapshot))
	out.set("checkpoint_ms", ms(readCost(plain, "checkpoint")))
	out.set("restore_ms", ms(load+restore+quiesce))
	out.set("merge_ms", ms(decode+mergeStates))
	out.set("batch_records_per_s", median(analyzeRates))
	out.set("stream.drain_ms", ms(cost(plain, "drain")))
	out.set("stream.peak_retained", level("peak_retained"))
	out.set("stream.epochs_closed", level("epochs_closed"))
	out.set("stream.shard_skew", level("shard_skew"))
	out.set("stream.checkpoint_kb", level("checkpoint_kb"))
	out.set("stream.reorder_evictions", sum(plain["reorder_evictions"]))
	out.set("stream.dropped_late", sum(plain["dropped_late"]))
	out.set("stream.decode_ms", ms(decode))
	out.set("stream.merge_states_ms", ms(mergeStates))
	out.set("stream.load_ms", ms(load))
	out.set("stream.restore_ms", ms(restore))
	out.set("stream.quiesce_ms", ms(quiesce))
	out.set("core.analyze_ms", ms(cost(plain, "analyze")))
	out.set("core.analyze_ns_per_record", 1e9/median(analyzeRates))
	if e.tr != nil {
		export, encode := readCost(traced, "export"), readCost(traced, "encode")
		out.set("stream.export_ms", ms(export))
		out.set("stream.encode_ms", ms(encode))
		out.set("stream.checkpoint_write_ms", ms(max(readCost(traced, "checkpoint")-export-encode, 0)))
		out.set("matcher.match_ns_per_record", median(traced["match_per_record"])*1e9)
		out.set("estimators.mp_us_per_epoch", calmCost(traced["estimate:MP"])*1e6)
		out.set("estimators.mb_us_per_epoch", calmCost(traced["estimate:MB"])*1e6)
		out.set("estimators.mt_us_per_epoch", calmCost(traced["estimate:MT"])*1e6)
		out.set("trace.overhead_ratio", calmCost(passSeconds[1])/calmCost(passSeconds[0]))
	}
	fmt.Fprintf(e.log, "stream-replay: %d passes in %.1fs\n", len(passSeconds[0])+len(passSeconds[1]), time.Since(start).Seconds())
	return out, nil
}
