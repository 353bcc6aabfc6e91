package stream

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/experiments"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// inboxConfig is the analysis of the inbox contract tests: small Murofet pools
// over one-hour epochs, with the MT second opinion, whose open cells hold
// candidates that a quiesce expires.
func inboxConfig() core.Config {
	return core.Config{
		Family:        experiments.ScaledSpec(dga.Murofet(), 0.1),
		Seed:          7,
		EpochLen:      sim.Hour,
		SecondOpinion: true,
	}
}

// inboxTrace is n records in strictly increasing time over two epochs,
// dealt round-robin to servers: pool names drawn at random, every fifth a
// name no pool holds.
func inboxTrace(cfg core.Config, servers []string, n int, seed uint64) trace.Observed {
	rng := sim.NewRNG(seed)
	step := 2 * cfg.EpochLen / sim.Time(n)
	recs := make(trace.Observed, n)
	for i := range recs {
		t := sim.Time(i)*step + sim.Time(seed%7)
		domain := "benign-lookup.example.org"
		if i%5 != 0 {
			pool := cfg.Family.Pool.PoolFor(cfg.Seed, int(t/cfg.EpochLen))
			domain = pool.Domains[rng.IntN(pool.Size())]
		}
		recs[i] = trace.ObservedRecord{T: t, Server: servers[i%len(servers)], Domain: domain}
	}
	return recs
}

func ingested(st *EngineState) uint64 {
	var n uint64
	for _, sh := range st.Shards {
		n += sh.Stats.Ingested
	}
	return n
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// pending reports how many records and requests wait in the shard's inbox.
func (s *shard) pending() (recs, ctls int) {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return len(s.in.pending.recs), len(s.in.pending.ctls)
}

// holdShard takes the shard's lock and feeds it one record, returning once
// the shard goroutine has taken that record's batch: from then on it waits
// for the lock, and whatever Observe queues stays in the inbox.
func holdShard(t *testing.T, e *Engine, rec trace.ObservedRecord) *shard {
	t.Helper()
	s := e.shards[0]
	s.mu.Lock()
	if err := e.Observe(rec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the shard to take its first batch", func() bool { r, _ := s.pending(); return r == 0 })
	return s
}

// TestBarrierCutExact: a barrier request is served at its queue position.
// From a single feeder, ExportState's cut and Quiesce hold exactly the k
// records fed before the call, for k around the inbox bound B, at B = 1 and
// 256. And a request queued behind k records and ahead of more, all waiting
// in one inbox while the shard is held, cuts at exactly k: the shard serves
// it in the middle of the batch it takes.
func TestBarrierCutExact(t *testing.T) {
	cfg := inboxConfig()
	servers := []string{"local-a", "local-b", "local-c", "local-d", "local-e"}
	for _, b := range []int{1, 256} {
		recs := inboxTrace(cfg, servers, 4*b+64, 1)
		for _, k := range []int{0, 1, b - 1, b, b + 1, 3*b + 7} {
			t.Run(fmt.Sprintf("B=%d/k=%d", b, k), func(t *testing.T) {
				e, err := New(Config{Core: cfg, Shards: 2, ShardBuffer: b})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Kill()
				for _, rec := range recs[:k] {
					if err := e.Observe(rec); err != nil {
						t.Fatal(err)
					}
				}
				st, err := e.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if got := ingested(st); got != uint64(k) {
					t.Fatalf("export after %d records cut at %d", k, got)
				}
				if err := e.Quiesce(); err != nil {
					t.Fatal(err)
				}
				if got := e.Stats().Ingested; got != uint64(k) {
					t.Fatalf("quiesce after %d records left %d ingested", k, got)
				}
				for _, rec := range recs[k:] {
					if err := e.Observe(rec); err != nil {
						t.Fatal(err)
					}
				}
				if st, err = e.ExportState(); err != nil {
					t.Fatal(err)
				}
				if got := ingested(st); got != uint64(len(recs)) {
					t.Fatalf("export after %d records cut at %d", len(recs), got)
				}
			})
		}
	}

	t.Run("queued-behind", func(t *testing.T) {
		const k, more = 40, 25
		recs := inboxTrace(cfg, servers, k+more, 2)
		e, err := New(Config{Core: cfg, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Kill()
		s := holdShard(t, e, recs[0])
		for _, rec := range recs[1:k] {
			if err := e.Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
		var st *EngineState
		done := make(chan error)
		go func() {
			var err error
			st, err = e.ExportState()
			done <- err
		}()
		waitFor(t, "the export request to be queued", func() bool { _, c := s.pending(); return c == 1 })
		for _, rec := range recs[k:] {
			if err := e.Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
		if r, c := s.pending(); r != k-1+more || c != 1 {
			t.Fatalf("inbox holds %d records and %d requests, want %d and 1", r, c, k-1+more)
		}
		s.mu.Unlock()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := ingested(st); got != k {
			t.Fatalf("request queued behind %d records and ahead of %d cut at %d", k, more, got)
		}
		if err := e.Quiesce(); err != nil {
			t.Fatal(err)
		}
		if got := e.Stats().Ingested; got != k+more {
			t.Fatalf("ingested %d of %d records", got, k+more)
		}
	})
}

// TestConcurrentProducersConserve: four producers feed the engine at once,
// each its own servers on its own shard in time order, while another
// goroutine exports, quiesces, snapshots and reads the tallies without a
// pause. Nothing is lost or counted twice — every delivered record is
// ingested — and the final landscape is core.Analyze's over the delivered
// records.
func TestConcurrentProducersConserve(t *testing.T) {
	const (
		producers = 4
		perServer = 3
		records   = 3000
	)
	cfg := inboxConfig()
	owned := make([][]string, producers)
	for i := 0; ; i++ {
		name := fmt.Sprintf("local-%03d", i)
		if p := shardIndex(name, producers); len(owned[p]) < perServer {
			owned[p] = append(owned[p], name)
		}
		full := true
		for _, o := range owned {
			full = full && len(o) == perServer
		}
		if full {
			break
		}
	}
	e, err := New(Config{Core: cfg, Shards: producers, ShardBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	var (
		all  trace.Observed
		feed sync.WaitGroup
	)
	for p := range producers {
		recs := inboxTrace(cfg, owned[p], records, uint64(p+10))
		all = append(all, recs...)
		feed.Add(1)
		go func() {
			defer feed.Done()
			for _, rec := range recs {
				if err := e.Observe(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var poll sync.WaitGroup
	poll.Add(1)
	go func() {
		defer poll.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.ExportState(); err != nil {
				t.Error(err)
			}
			if err := e.Quiesce(); err != nil {
				t.Error(err)
			}
			if _, err := e.Snapshot(); err != nil {
				t.Error(err)
			}
			e.Stats()
		}
	}()
	feed.Wait()
	close(stop)
	poll.Wait()
	got, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	stats := e.Stats()
	if stats.Ingested != uint64(len(all)) || stats.DroppedLate != 0 {
		t.Fatalf("delivered %d records, ingested %d, %d late drops", len(all), stats.Ingested, stats.DroppedLate)
	}

	bm, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all.Sort()
	minT, maxT := all[0].T, all[len(all)-1].T
	want, err := bm.Analyze(all, sim.Window{
		Start: minT / cfg.EpochLen * cfg.EpochLen,
		End:   (maxT/cfg.EpochLen + 1) * cfg.EpochLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Servers, got.Servers) || want.Window != got.Window ||
		math.Abs(want.Total-got.Total) > 1e-9*math.Max(1, want.Total) {
		t.Fatalf("stream landscape differs from batch:\nbatch  %+v\nstream %+v", want, got)
	}
}

// TestObserveBackpressure: at ShardBuffer 1, with the shard held under its
// lock and one record waiting, Observe blocks; it returns once the shard is
// released, and every record is ingested.
func TestObserveBackpressure(t *testing.T) {
	cfg := inboxConfig()
	recs := inboxTrace(cfg, []string{"local-a"}, 3, 3)
	e, err := New(Config{Core: cfg, Shards: 1, ShardBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := holdShard(t, e, recs[0])
	if err := e.Observe(recs[1]); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- e.Observe(recs[2]) }()
	select {
	case err := <-done:
		s.mu.Unlock()
		t.Fatalf("Observe returned (%v) with the inbox full", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Ingested; got != uint64(len(recs)) {
		t.Fatalf("ingested %d of %d records", got, len(recs))
	}
}

// TestKillWithRecordsQueued: Kill returns with records still in a shard's
// inbox; the shard ingests them before it stops, as Close's does, and the
// engine refuses Observe afterwards.
func TestKillWithRecordsQueued(t *testing.T) {
	cfg := inboxConfig()
	recs := inboxTrace(cfg, []string{"local-a", "local-b"}, 12, 4)
	e, err := New(Config{Core: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := holdShard(t, e, recs[0])
	for _, rec := range recs[1:] {
		if err := e.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	killed := make(chan struct{})
	go func() {
		e.Kill()
		close(killed)
	}()
	waitFor(t, "Kill to close the inbox", func() bool {
		s.in.mu.Lock()
		defer s.in.mu.Unlock()
		return s.in.closed
	})
	if r, _ := s.pending(); r != len(recs)-1 {
		t.Fatalf("%d records queued at Kill, want %d", r, len(recs)-1)
	}
	s.mu.Unlock()
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("Kill did not return")
	}
	if err := e.Observe(recs[0]); err == nil {
		t.Fatal("Observe after Kill succeeded")
	}
	if got := e.Stats().Ingested; got != uint64(len(recs)) {
		t.Fatalf("ingested %d of %d queued records", got, len(recs))
	}
}
