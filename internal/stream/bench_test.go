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
	spec := dga.ConfickerC()
	for _, servers := range []int{16, 256, 2048} {
		recs := ingestTrace(spec, servers)
		b.Run(fmt.Sprint(servers), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				eng, err := stream.New(stream.Config{Core: core.Config{Family: spec, Seed: ingestSeed}, Shards: 2})
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
				if got := eng.Stats().Matched; got != ingestRecords {
					b.Fatalf("matched %d of %d records", got, ingestRecords)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ingestRecords), "ns/record")
		})
	}
}

const (
	ingestSeed    = 7
	ingestRecords = 200_000
)

// ingestTrace is BenchmarkIngestServers' trace: every record matched, dealt
// round-robin to the servers, one every 500 ms.
func ingestTrace(spec dga.Spec, servers int) trace.Observed {
	const step = 500 * sim.Millisecond
	pools := []*dga.Pool{spec.Pool.PoolFor(ingestSeed, 0), spec.Pool.PoolFor(ingestSeed, 1)}
	names := make([]string, servers)
	for i := range names {
		names[i] = fmt.Sprintf("local-%04d", i)
	}
	recs := make(trace.Observed, ingestRecords)
	for i := range recs {
		t := sim.Time(i) * step
		pool := pools[t/sim.Day]
		recs[i] = trace.ObservedRecord{T: t, Server: names[i%servers], Domain: pool.Domains[i%pool.Size()]}
	}
	return recs
}

// BenchmarkCheckpointCodec measures the state codec on the state
// BenchmarkIngestServers/16 ends with (Conficker.C, 16 servers, every pool
// name of two epochs seen): MB/s of frame and allocations per operation, for
// the encode a checkpoint and /state pay and the decode a restore and a
// coordinator's pull pay.
func BenchmarkCheckpointCodec(b *testing.B) {
	spec := dga.ConfickerC()
	eng, err := stream.New(stream.Config{Core: core.Config{Family: spec, Seed: ingestSeed}, Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Kill()
	for _, rec := range ingestTrace(spec, 16) {
		if err := eng.Observe(rec); err != nil {
			b.Fatal(err)
		}
	}
	st, err := eng.ExportState()
	if err != nil {
		b.Fatal(err)
	}
	frame, err := stream.EncodeCheckpoint(st)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := stream.EncodeCheckpoint(st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := stream.DecodeCheckpoint(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
