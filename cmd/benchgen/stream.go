package main

import (
	"fmt"
	"os"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/experiments"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

const streamBenchEpochLen = sim.Hour

// streamBenchTrace builds the deterministic observable trace the streaming
// benchmark replays: per epoch and server, a few bot activations drawing
// real barrels from the family's rotating pool, plus unmatched noise
// lookups, sorted into canonical timestamp order.
func streamBenchTrace(spec dga.Spec, seed uint64, servers, epochs, activations int) (trace.Observed, error) {
	var out trace.Observed
	for ep := 0; ep < epochs; ep++ {
		pool := spec.Pool.PoolFor(seed, ep)
		if pool.Size() == 0 {
			return nil, fmt.Errorf("stream bench: epoch %d has an empty pool", ep)
		}
		epochStart := sim.Time(ep) * streamBenchEpochLen
		margin := streamBenchEpochLen - spec.MaxDuration()
		if margin <= 0 {
			return nil, fmt.Errorf("stream bench: activation duration %v exceeds the epoch", spec.MaxDuration())
		}
		for sv := 0; sv < servers; sv++ {
			name := fmt.Sprintf("local-%d", sv)
			rng := sim.SplitFrom(seed, uint64(ep)*1_000_003+uint64(sv))
			for a := 0; a < activations; a++ {
				start := epochStart + sim.Time(rng.Int64N(int64(margin)))
				positions := dga.ExecuteBarrel(pool, spec.Barrel.Barrel(pool, spec.ThetaQ, rng))
				t := start
				for _, pos := range positions {
					out = append(out, trace.ObservedRecord{T: t, Server: name, Domain: pool.Domains[pos]})
					t += spec.Interval(rng)
				}
			}
			for n := 0; n < 5; n++ {
				out = append(out, trace.ObservedRecord{
					T:      epochStart + sim.Time(rng.Int64N(int64(streamBenchEpochLen))),
					Server: name,
					Domain: fmt.Sprintf("noise-%d-%d-%d.example", ep, sv, n),
				})
			}
		}
	}
	out.Sort()
	return out, nil
}

// streamBench replays the synthetic trace through the streaming engine,
// optionally checkpointing every checkpointEvery records to a scratch
// directory. Every record counts as one "trial" on experiments_trials_total,
// so a -bench-json record's ns_per_trial reads as nanoseconds per streamed
// record — running the "stream" and "stream-checkpoint" artifacts
// back-to-back into the same file yields the checkpoint overhead series
// (off vs on) on comparable terms.
func streamBench(g genOpts, checkpoint bool) error {
	const (
		servers         = 16
		epochs          = 6
		activations     = 3
		checkpointEvery = 2000
	)
	spec := experiments.ScaledSpec(dga.Murofet(), 0.1*g.sweep.Scale)
	delivered, err := streamBenchTrace(spec, g.sweep.Seed, servers, epochs, activations)
	if err != nil {
		return err
	}
	eng, err := stream.New(stream.Config{
		Core:          core.Config{Family: spec, Seed: g.sweep.Seed, EpochLen: streamBenchEpochLen},
		Shards:        g.sweep.Workers,
		ReorderWindow: 5 * sim.Second,
	})
	if err != nil {
		return err
	}
	var ck *stream.Checkpointer
	if checkpoint {
		dir, err := os.MkdirTemp("", "benchgen-checkpoint-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ck, err = stream.NewCheckpointer(stream.CheckpointConfig{Dir: dir, EveryRecords: checkpointEvery})
		if err != nil {
			return err
		}
	}
	trig := ck.NewTrigger(1)
	for i, rec := range delivered {
		if err := eng.Observe(rec); err != nil {
			return err
		}
		if now := time.Now(); trig.Tick(now) {
			trig.Rearm(now)
			if err := ck.Try(eng, uint64(i+1)); err != nil {
				return err
			}
		}
	}
	if ck != nil {
		if err := ck.Close(); err != nil {
			return err
		}
	}
	land, err := eng.Close()
	if err != nil {
		return err
	}
	if reg := g.sweep.Obs; reg != nil {
		reg.Counter("experiments_trials_total").Add(uint64(len(delivered)))
	}
	stats := eng.Stats()
	fmt.Printf("stream bench: %d record(s), %d matched, %d server(s), total population %.1f\n",
		stats.Ingested, stats.Matched, len(land.Servers), land.Total)
	if ck != nil {
		cs := ck.Stats()
		fmt.Printf("checkpointing on: every %d record(s), %d generation(s) written (%d skipped, %d errors), last %d bytes in %v\n",
			checkpointEvery, cs.Written, cs.Skipped, cs.Errors, cs.LastBytes, cs.LastDuration)
	} else {
		fmt.Println("checkpointing off")
	}
	return nil
}
