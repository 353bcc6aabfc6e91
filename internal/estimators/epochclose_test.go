package estimators

import (
	"testing"

	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// observeNXPositions feeds the stream one record per distinct NX position
// (the first `distinct` of the epoch-0 pool), repeating each record
// 1+dups times, and returns how many distinct positions were fed.
func observeNXPositions(es EpochStream, cfg Config, distinct, dups int) int {
	pool := cfg.Spec.Pool.PoolFor(cfg.Seed, 0)
	fed := 0
	for pos := 0; pos < pool.Size() && fed < distinct; pos++ {
		if pool.ValidAt(pos) {
			continue
		}
		rec := trace.ObservedRecord{T: sim.Time(fed) * sim.Second, Pos: int32(pos)}
		for k := 0; k <= dups; k++ {
			es.Observe(rec)
		}
		fed++
	}
	return fed
}

// segmentWorkFor runs one streaming MB epoch over `distinct` changed pool
// positions (each record duplicated dups extra times) against a pool of nx
// NX domains, and reports the segment pipeline's (bucket, position) work.
func segmentWorkFor(t *testing.T, nx, distinct, dups int) uint64 {
	t.Helper()
	mb := NewBernoulli()
	cfg, err := defaultCfg(arSpec(nx, 2, 10)).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	es := mb.OpenEpoch(0, cfg)
	if fed := observeNXPositions(es, cfg, distinct, dups); fed != distinct {
		t.Fatalf("pool too small: fed %d of %d distinct NX positions", fed, distinct)
	}
	if got := es.Estimate(); got <= 0 {
		t.Fatalf("estimate = %v, want > 0", got)
	}
	if r, ok := es.(Releasable); ok {
		r.Release()
	}
	return mb.SegmentWork()
}

// TestEpochCloseWorkScalesWithChanged is the tentpole's O(changed) contract
// made observable: streaming MB's epoch close processes the distinct
// (bucket, position) pairs the epoch actually touched — its cost is
// invariant both to pool size (a 20× larger pool with the same activity
// does the same work) and to record volume (duplicate lookups of an
// already-seen position are absorbed at ingest and add nothing to close).
func TestEpochCloseWorkScalesWithChanged(t *testing.T) {
	const distinct = 64
	small := segmentWorkFor(t, 200, distinct, 0)
	large := segmentWorkFor(t, 4000, distinct, 0)
	dup := segmentWorkFor(t, 200, distinct, 3)
	if small == 0 {
		t.Fatal("segment pipeline reported zero work")
	}
	if large != small {
		t.Errorf("epoch-close work grew with pool size: %d (nx=200) vs %d (nx=4000)", small, large)
	}
	if dup != small {
		t.Errorf("epoch-close work grew with duplicate records: %d (1×) vs %d (4×)", small, dup)
	}
}

// benchEpochClose measures one full streaming epoch cycle — open, ingest
// the prepared records, close (final Estimate), release — for any
// Estimator estimator.
func benchEpochClose(b *testing.B, sc Estimator, cfg Config, recs trace.Observed) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		es := sc.OpenEpoch(0, cfg)
		for _, rec := range recs {
			es.Observe(rec)
		}
		if es.Estimate() < 0 {
			b.Fatal("negative estimate")
		}
		if r, ok := es.(Releasable); ok {
			r.Release()
		}
	}
}

// nxRecords materialises records over the first `distinct` NX positions of
// cfg's epoch-0 pool, each repeated 1+dups times.
func nxRecords(b *testing.B, cfg Config, distinct, dups int) trace.Observed {
	b.Helper()
	pool := cfg.Spec.Pool.PoolFor(cfg.Seed, 0)
	var recs trace.Observed
	fed := 0
	for pos := 0; pos < pool.Size() && fed < distinct; pos++ {
		if pool.ValidAt(pos) {
			continue
		}
		rec := trace.ObservedRecord{T: sim.Time(fed) * sim.Second, Pos: int32(pos)}
		for k := 0; k <= dups; k++ {
			recs = append(recs, rec)
		}
		fed++
	}
	if fed != distinct {
		b.Fatalf("pool too small: fed %d of %d distinct NX positions", fed, distinct)
	}
	return recs
}

func BenchmarkEpochCloseMB(b *testing.B) {
	cfg, err := defaultCfg(arSpec(2000, 2, 10)).Normalized()
	if err != nil {
		b.Fatal(err)
	}
	benchEpochClose(b, NewBernoulli(), cfg, nxRecords(b, cfg, 256, 3))
}

func BenchmarkEpochCloseMP(b *testing.B) {
	cfg, err := defaultCfg(arSpec(2000, 2, 10)).Normalized()
	if err != nil {
		b.Fatal(err)
	}
	benchEpochClose(b, NewPoisson(), cfg, nxRecords(b, cfg, 256, 3))
}

func BenchmarkEpochCloseMT(b *testing.B) {
	cfg, err := defaultCfg(auSpec()).Normalized()
	if err != nil {
		b.Fatal(err)
	}
	benchEpochClose(b, NewTiming(), cfg, nxRecords(b, cfg, 90, 3))
}
