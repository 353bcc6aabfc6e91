package stream_test

import (
	"fmt"
	"testing"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// BenchmarkIngestServers measures what one matched record costs the engine
// as the number of forwarding servers it holds state for grows: Conficker.C
// (MT, the estimator with candidates to expire), two shards, 200 000 matched
// records dealt round-robin to S servers, one record every 500 ms so the
// trace crosses an epoch boundary. The per-record cost must not follow S —
// scripts/ingest_scaling_gate.sh fails CI when ns/record at 2 048 servers
// exceeds three times the figure at 16.
func BenchmarkIngestServers(b *testing.B) {
	const (
		seed    = 7
		records = 200_000
		step    = 500 * sim.Millisecond
	)
	spec := dga.ConfickerC()
	pools := []*dga.Pool{spec.Pool.PoolFor(seed, 0), spec.Pool.PoolFor(seed, 1)}
	for _, servers := range []int{16, 256, 2048} {
		names := make([]string, servers)
		for i := range names {
			names[i] = fmt.Sprintf("local-%04d", i)
		}
		recs := make(trace.Observed, records)
		for i := range recs {
			t := sim.Time(i) * step
			pool := pools[t/sim.Day]
			recs[i] = trace.ObservedRecord{T: t, Server: names[i%servers], Domain: pool.Domains[i%pool.Size()]}
		}
		b.Run(fmt.Sprint(servers), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				eng, err := stream.New(stream.Config{Core: core.Config{Family: spec, Seed: seed}, Shards: 2})
				if err != nil {
					b.Fatal(err)
				}
				for _, rec := range recs {
					if err := eng.Observe(rec); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := eng.Close(); err != nil {
					b.Fatal(err)
				}
				if got := eng.Stats().Matched; got != records {
					b.Fatalf("matched %d of %d records", got, records)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}
