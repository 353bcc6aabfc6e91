package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/dnswire"
	"botmeter/internal/faults"
	"botmeter/internal/netx"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// unbatched flushes every record at once and runs no background flusher, so
// each observation is in the dataset file when handle returns.
var unbatched = trace.SafeWriterConfig{FlushInterval: -1, FlushEvery: 1}

// newTestSink builds a sink with the given zone and opens a temp dataset
// file for its workers to share (pass both to sink.attach).
func newTestSink(t *testing.T, zoneLines string) (*sink, *os.File) {
	t.Helper()
	dir := t.TempDir()
	zonePath := filepath.Join(dir, "zone.txt")
	if err := os.WriteFile(zonePath, []byte(zoneLines), 0o644); err != nil {
		t.Fatal(err)
	}
	zone, err := loadZone(zonePath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "obs.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return &sink{zone: buildZoneAnswers(zone), ttl: 60, log: slog.New(slog.DiscardHandler)}, f
}

// newTestEngine starts a newgoz engine that the test's cleanup kills.
func newTestEngine(t *testing.T) *stream.Engine {
	t.Helper()
	spec, err := dga.Lookup("newgoz")
	if err != nil {
		t.Fatal(err)
	}
	est, err := stream.New(stream.Config{Core: core.Config{Family: spec, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(est.Kill)
	return est
}

// socketless gives the sink n workers that no socket feeds: the test calls
// handle itself. Their writers are closed with the test.
func socketless(t *testing.T, s *sink, f *os.File, n int, cfg trace.SafeWriterConfig) {
	t.Helper()
	s.attach(make([]netx.Conn, n), f, cfg)
	t.Cleanup(func() {
		for _, w := range s.workers {
			w.out.Close()
		}
	})
}

func encodeQuery(t *testing.T, id uint16, domain string) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(id, domain).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func readDataset(t *testing.T, f *os.File) trace.Observed {
	t.Helper()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := trace.ReadObserved(bytes.NewReader(data), trace.ReadOptions{})
	if err != nil {
		t.Fatalf("dataset unparseable (torn interleave?): %v", err)
	}
	return recs
}

// TestWorkerAnswersAndRecords: a registered name gets its zone address, an
// unknown (sinkholed DGA) name NXDOMAIN, and both are recorded under the
// forwarding server's identity with the name canonicalised.
func TestWorkerAnswersAndRecords(t *testing.T) {
	s, f := newTestSink(t, "c2.evil.com 192.0.2.99\n")
	socketless(t, s, f, 1, unbatched)
	w := s.workers[0]

	m, err := dnswire.Decode(w.handle(encodeQuery(t, 1, "C2.Evil.COM"), "10.0.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.ID != 1 || m.Header.Rcode != dnswire.RcodeNoError || len(m.Answers) != 1 {
		t.Fatalf("registered response = %+v", m)
	}
	if !net.IP(m.Answers[0].Data).Equal(net.ParseIP("192.0.2.99")) {
		t.Errorf("answer IP = %v", net.IP(m.Answers[0].Data))
	}
	m, err = dnswire.Decode(w.handle(encodeQuery(t, 2, "random-dga-name.net"), "10.0.0.6"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("unknown rcode = %d, want NXDOMAIN", m.Header.Rcode)
	}

	recs := readDataset(t, f)
	if len(recs) != 2 {
		t.Fatalf("observed %d records, want 2", len(recs))
	}
	if recs[0].Server != "10.0.0.5" || recs[0].Domain != "c2.evil.com" || recs[1].Domain != "random-dga-name.net" {
		t.Errorf("observations = %+v", recs)
	}
}

func TestWorkerIgnoresGarbageAndResponses(t *testing.T) {
	s, f := newTestSink(t, "")
	socketless(t, s, f, 1, unbatched)
	w := s.workers[0]
	if resp := w.handle([]byte{1, 2, 3}, "x"); resp != nil {
		t.Error("garbage should be dropped")
	}
	// A response message must not be echoed (loop prevention).
	wire, err := dnswire.NewResponse(dnswire.NewQuery(3, "a.com"), nil, 0).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if resp := w.handle(wire, "x"); resp != nil {
		t.Error("responses should be dropped")
	}
	if recs := readDataset(t, f); len(recs) != 0 {
		t.Errorf("garbage produced observations: %+v", recs)
	}
}

// brokenWriter fails every write.
type brokenWriter struct{}

func (brokenWriter) Write([]byte) (int, error) { return 0, errors.New("disk gone") }

// TestStickyWriterError: one worker of two loses its disk. The DNS plane
// keeps answering on both, the errors are counted, /healthz degrades, and
// checkpointing refuses — a checkpoint ahead of the durable file would
// double-apply records on resume.
func TestStickyWriterError(t *testing.T) {
	s, f := newTestSink(t, "up.example 192.0.2.9\n")
	s.est = newTestEngine(t)
	var err error
	s.ck, err = stream.NewCheckpointer(stream.CheckpointConfig{Dir: t.TempDir(), EveryRecords: 4, PreSync: s.flush})
	if err != nil {
		t.Fatal(err)
	}
	socketless(t, s, f, 2, unbatched)
	reg := obs.NewRegistry()
	s.instrument(reg)
	good, bad := s.workers[0], s.workers[1]
	bad.out.Close()
	bad.out = trace.NewSafeWriter(brokenWriter{}, unbatched)

	for i := 0; i < 5; i++ {
		for _, w := range []*vantageWorker{bad, good} {
			m, err := dnswire.Decode(w.handle(encodeQuery(t, uint16(50+i), "up.example"), "10.0.0.7"))
			if err != nil {
				t.Fatalf("DNS answer lost to a disk failure: %v", err)
			}
			if m.Header.Rcode != dnswire.RcodeNoError {
				t.Fatalf("rcode = %d under disk failure", m.Header.Rcode)
			}
		}
	}
	if n := s.writeErrs.Load(); n != 5 {
		t.Errorf("write errors = %d, want 5", n)
	}
	if err := s.health(); err == nil {
		t.Error("health is fine with a sticky writer error")
	}
	if reg.GaugeValue(metricStickyError) != 1 || reg.CounterValue(metricWriteErrors) != 5 || reg.CounterValue(metricObserved) != 5 {
		t.Errorf("%s = %v, %s = %d, %s = %d; want 1, 5 and 5", metricStickyError, reg.GaugeValue(metricStickyError),
			metricWriteErrors, reg.CounterValue(metricWriteErrors), metricObserved, reg.CounterValue(metricObserved))
	}
	// The good worker tripped the count trigger twice (2 of its own records
	// each time); both attempts must have been refused.
	if st := s.ck.Stats(); st.Written != 0 || st.Errors < 2 {
		t.Errorf("checkpoints written %d, errors %d; want 0 written, at least 2 refused", st.Written, st.Errors)
	}
	if s.ckErrs.Load() < 2 {
		t.Errorf("checkpoint errors reported = %d, want at least 2", s.ckErrs.Load())
	}
	if recs := readDataset(t, f); len(recs) != 5 {
		t.Errorf("the healthy worker recorded %d of its 5 observations", len(recs))
	}
}

// datasetLinesAt counts the lines in the first size bytes of the dataset.
func datasetLinesAt(t *testing.T, path string, size int64) uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) < size {
		t.Fatalf("dataset has %d bytes, a checkpoint claims %d", len(data), size)
	}
	return uint64(bytes.Count(data[:size], []byte{'\n'}))
}

// checkCuts decodes every checkpoint generation in dir and asserts the cut
// invariant: the record count it is stamped with is the number of lines the
// dataset held when it was taken. It returns the stamped counts, oldest
// generation first.
func checkCuts(t *testing.T, dir, dataset string) []uint64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var cuts []uint64
	for _, p := range paths { // Glob sorts, and generations are zero-padded
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := stream.DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(p), err)
		}
		if lines := datasetLinesAt(t, dataset, st.Source.Bytes); lines != st.Source.Records {
			t.Errorf("%s is stamped %d records, the dataset held %d lines at its cut",
				filepath.Base(p), st.Source.Records, lines)
		}
		cuts = append(cuts, st.Source.Records)
	}
	return cuts
}

// TestCutSimultaneousTrips: with the count trigger at one record per worker
// every record of every worker trips it, so the workers race for the cut all
// the time. None may deadlock, every generation must satisfy the cut
// invariant, and later generations must cut at strictly later records. Run
// under -race. Most attempts are skipped behind the write in flight, so the
// queries go in two bursts with the write in flight waited out between them:
// each burst's first trip writes, and at least two generations must be on
// disk for the ordering check to compare anything. An armed crasher that
// never fires changes nothing of that: its points are passed on the same
// background writer.
func TestCutSimultaneousTrips(t *testing.T) {
	const workers, perWorker = 4, 30
	never := faults.NewCrasher(faults.CrashSpec{Point: "never"})
	for name, crash := range map[string]*faults.Crasher{"background-writes": nil, "armed-crasher": never} {
		t.Run(name, func(t *testing.T) {
			s, f := newTestSink(t, "")
			s.est = newTestEngine(t)
			ckDir := t.TempDir()
			var err error
			s.ck, err = stream.NewCheckpointer(stream.CheckpointConfig{
				Dir: ckDir, EveryRecords: workers, Keep: workers * perWorker, Crash: crash, PreSync: s.flush,
				Source: f.Name(),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Batched writers: the cut itself has to flush them.
			socketless(t, s, f, workers, trace.SafeWriterConfig{FlushInterval: -1, FlushEvery: 16})

			burst := func(queries int) {
				start := make(chan struct{})
				var wg sync.WaitGroup
				for i, w := range s.workers {
					wg.Add(1)
					go func(i int, w *vantageWorker) {
						defer wg.Done()
						pkt, err := dnswire.NewQuery(uint16(i+1), fmt.Sprintf("trip-%d.example", i)).Encode()
						if err != nil {
							t.Error(err)
							return
						}
						<-start
						for q := 0; q < queries; q++ {
							if w.handle(pkt, fmt.Sprintf("10.0.0.%d", i+1)) == nil {
								t.Errorf("worker %d query %d: no answer", i, q)
								return
							}
						}
					}(i, w)
				}
				close(start)
				wg.Wait()
				// Close only waits out the write in flight; the
				// checkpointer stays usable for the next burst.
				if err := s.ck.Close(); err != nil {
					t.Fatal(err)
				}
			}
			burst(perWorker / 2)
			burst(perWorker - perWorker/2)
			st := s.ck.Stats()
			if st.Written < 2 || st.Errors != 0 {
				t.Fatalf("checkpoints: %+v, want at least one generation a burst", st)
			}
			t.Logf("%d generations, %d attempts skipped", st.Written, st.Skipped)
			if err := s.flush(); err != nil {
				t.Fatal(err)
			}
			cuts := checkCuts(t, ckDir, f.Name())
			if uint64(len(cuts)) != st.Written || len(cuts) < 2 {
				t.Fatalf("%d generations on disk, %d written, want at least 2", len(cuts), st.Written)
			}
			for i := 1; i < len(cuts); i++ {
				if cuts[i] <= cuts[i-1] {
					t.Fatalf("generation %d cut at record %d, not after generation %d's %d", i, cuts[i], i-1, cuts[i-1])
				}
			}
			if last := cuts[len(cuts)-1]; last > workers*perWorker {
				t.Fatalf("last cut at record %d of %d", last, workers*perWorker)
			}
		})
	}
}

// TestHandleZeroAllocs: with a live engine and an armed checkpointer the
// steady-state datagram path allocates nothing — for a name from the
// engine's pool, and for never-seen names no pool holds, which the worker
// keeps nothing of.
func TestHandleZeroAllocs(t *testing.T) {
	spec, err := dga.Lookup("newgoz")
	if err != nil {
		t.Fatal(err)
	}
	s, f := newTestSink(t, "")
	s.est = newTestEngine(t)
	s.ck, err = stream.NewCheckpointer(stream.CheckpointConfig{
		Dir: t.TempDir(), EveryRecords: 1 << 40, Interval: time.Hour, PreSync: s.flush,
	})
	if err != nil {
		t.Fatal(err)
	}
	socketless(t, s, f, 1, trace.SafeWriterConfig{FlushInterval: -1})
	w := s.workers[0]
	// A name from today's pool, so the engine matches it rather than
	// dropping it at the door.
	epoch := int(time.Now().UnixMilli() / int64(sim.Day))
	pkt := encodeQuery(t, 9, spec.Pool.PoolFor(1, epoch).Domains[0])
	allocs := testing.AllocsPerRun(2000, func() {
		if w.handle(pkt, "10.0.0.5") == nil {
			t.Fatal("no answer")
		}
	})
	if allocs != 0 {
		t.Fatalf("handle allocates %.0f times per datagram, want 0", allocs)
	}
	if w.consumed != 2001 {
		t.Fatalf("recorded %d of 2001 datagrams", w.consumed)
	}

	// 20 000 distinct names of no pool: each is seen once, so anything kept
	// per name would allocate on every datagram.
	const distinct = 20000
	pkts := make([][]byte, distinct)
	for i := range pkts {
		pkts[i] = encodeQuery(t, uint16(i), fmt.Sprintf("nx%05d.example.org", i))
	}
	next := 0
	allocs = testing.AllocsPerRun(distinct-1, func() {
		if w.handle(pkts[next], "10.0.0.5") == nil {
			t.Fatal("no answer")
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("handle allocates %.3f times per never-seen datagram, want 0", allocs)
	}
	if w.consumed != 2001+distinct {
		t.Fatalf("recorded %d of %d datagrams", w.consumed, 2001+distinct)
	}
}

// scriptConn is a netx.Conn that delivers a fixed sequence of datagrams and
// then reports closed, so a worker's serve loop runs over it without sockets
// or timing.
type scriptConn struct {
	in     [][]byte
	from   netip.AddrPort
	writes int
	failAt int // this write is refused (1-based; 0 = none)
}

func (c *scriptConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	if len(c.in) == 0 {
		return 0, netip.AddrPort{}, net.ErrClosed
	}
	n := copy(b, c.in[0])
	c.in = c.in[1:]
	return n, c.from, nil
}
func (c *scriptConn) WriteToUDPAddrPort(b []byte, _ netip.AddrPort) (int, error) {
	c.writes++
	if c.writes == c.failAt {
		return 0, errors.New("sendto: no buffer space available")
	}
	return len(b), nil
}
func (c *scriptConn) Close() error        { return nil }
func (c *scriptConn) LocalAddr() net.Addr { return net.UDPAddrFromAddrPort(c.from) }

// TestChaosReplay: one listener under a fixed -chaos-seed makes exactly the
// fault decisions the classic single-socket loop made. The expected tallies
// were recorded by running this script through sink.serve at the last commit
// that had it (a2471df).
func TestChaosReplay(t *testing.T) {
	rates, err := faults.ParseSpec("loss=0.2,dup=0.1,servfail=0.15,delay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	sc := &scriptConn{from: netip.MustParseAddrPort("10.0.0.5:4242")}
	for i := 0; i < 400; i++ {
		d := fmt.Sprintf("q%d.example", i)
		if i%7 == 0 {
			d = "c2.example"
		}
		sc.in = append(sc.in, encodeQuery(t, uint16(i+1), d))
	}
	s, f := newTestSink(t, "c2.example 192.0.2.9\n")
	reg := obs.NewRegistry()
	s.attach(faults.WrapPacketConns([]netx.Conn{sc}, 42, rates, reg), f, unbatched)
	s.instrument(reg)
	if err := s.serve(); err != nil {
		t.Fatal(err)
	}
	want := faults.Counters{Passed: 569, Lost: 153, Duplicated: 19, ServFails: 65, Delayed: 169}
	if got := s.workers[0].inj.Counters(); got != want {
		t.Errorf("chaos counters = %v, the classic loop's were %v", got, want)
	}
	// The registry reads each of these from its one owner.
	for _, c := range []struct {
		name  string
		kind  string
		tally uint64
	}{
		{faults.MetricPassed, "", want.Passed},
		{faults.MetricInjected, "loss", want.Lost},
		{faults.MetricInjected, "duplicate", want.Duplicated},
		{faults.MetricInjected, "servfail", want.ServFails},
		{faults.MetricInjected, "delay", want.Delayed},
		{faults.MetricInjected, "blackout", want.Blackholed},
		{metricObserved, "", s.workers[0].consumed},
		{metricWriteErrors, "", s.writeErrs.Load()},
		{metricObserveErrs, "", s.observeErrs.Load()},
		{metricSendErrors, "", s.sendErrs.Load()},
	} {
		var labels []string
		if c.kind != "" {
			labels = []string{"kind", c.kind}
		}
		if got := reg.CounterValue(c.name, labels...); got != c.tally {
			t.Errorf("%s%v = %d, its owner counted %d", c.name, labels, got, c.tally)
		}
	}
	if sc.writes != 266 {
		t.Errorf("%d datagrams written, the classic loop wrote 266", sc.writes)
	}
	// SERVFAIL'd and lost queries are not recorded; everything else is,
	// under the identity serverFor gives the unwrapped socket's peer.
	recs := readDataset(t, f)
	if uint64(len(recs)) != s.consumed || len(recs) == 0 || len(recs) >= 400 {
		t.Errorf("dataset has %d records, the sink counted %d", len(recs), s.consumed)
	}
	for i, r := range recs {
		if r.Server != "10.0.0.5" {
			t.Fatalf("record %d has server %q, want 10.0.0.5", i, r.Server)
		}
	}
}

// TestSendErrorKeepsServing: a response the socket refuses is counted, and
// the worker goes on reading that socket.
func TestSendErrorKeepsServing(t *testing.T) {
	sc := &scriptConn{from: netip.MustParseAddrPort("10.0.0.5:4242"), failAt: 1}
	for i := 0; i < 3; i++ {
		sc.in = append(sc.in, encodeQuery(t, uint16(i+1), "q.example"))
	}
	s, f := newTestSink(t, "")
	reg := obs.NewRegistry()
	s.attach([]netx.Conn{sc}, f, unbatched)
	s.instrument(reg)
	if err := s.serve(); err != nil {
		t.Fatal(err)
	}
	if sc.writes != 3 || s.consumed != 3 {
		t.Errorf("%d sends and %d records after a refused send, want 3 and 3", sc.writes, s.consumed)
	}
	if got := reg.CounterValue(metricSendErrors); got != 1 {
		t.Errorf("%s = %d, want 1", metricSendErrors, got)
	}
}

// startWorkers serves the sink on n loopback sockets and returns the address.
func startWorkers(t *testing.T, s *sink, f *os.File, n int) string {
	t.Helper()
	conns, _, err := netx.ListenUDP(context.Background(), "127.0.0.1:0", n)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	s.attach(conns, f, unbatched)
	done := make(chan error, 1)
	go func() { done <- s.serve() }()
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return conns[0].LocalAddr().String()
}

func wireExchange(t *testing.T, addr string, id uint16, domain string) *dnswire.Message {
	t.Helper()
	client, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write(encodeQuery(t, id, domain)); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 4096)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatalf("no response for %s: %v", domain, err)
	}
	m, err := dnswire.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServeLoopback exercises the real UDP path end to end.
func TestServeLoopback(t *testing.T) {
	s, f := newTestSink(t, "live.example.com 192.0.2.5\n")
	addr := startWorkers(t, s, f, 1)

	m := wireExchange(t, addr, 7, "live.example.com")
	if m.Header.ID != 7 || len(m.Answers) != 1 || m.Header.Rcode != dnswire.RcodeNoError {
		t.Fatalf("registered response = %+v", m)
	}
	if got := net.IP(m.Answers[0].Data).String(); got != "192.0.2.5" {
		t.Fatalf("answer IP = %s, want 192.0.2.5", got)
	}
	if m := wireExchange(t, addr, 8, "X9K2Q.NewGOZ.biz"); m.Header.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("unknown rcode = %d, want NXDOMAIN", m.Header.Rcode)
	}

	recs := readDataset(t, f)
	if len(recs) != 2 {
		t.Fatalf("observed %d records, want 2", len(recs))
	}
	if recs[0].Domain != "live.example.com" || recs[1].Domain != "x9k2q.newgoz.biz" {
		t.Fatalf("observed domains = %q, %q", recs[0].Domain, recs[1].Domain)
	}
	for i, r := range recs {
		if r.Server != "127.0.0.1" {
			t.Fatalf("record %d server = %q, want 127.0.0.1", i, r.Server)
		}
		if r.T <= 0 {
			t.Fatalf("record %d has no timestamp", i)
		}
	}
}

// TestServeFeedsEngine pins the lifetime contract: domains handed to the
// live engine must survive arena reuse, so later packets cannot corrupt
// earlier observations queued in the engine's shards.
func TestServeFeedsEngine(t *testing.T) {
	s, f := newTestSink(t, "")
	s.est = newTestEngine(t)
	addr := startWorkers(t, s, f, 1)

	const queries = 64
	for i := 0; i < queries; i++ {
		d := "d" + string(rune('a'+i%26)) + ".example"
		if m := wireExchange(t, addr, uint16(i+1), d); m.Header.Rcode != dnswire.RcodeNXDomain {
			t.Fatalf("query %d rcode = %d", i, m.Header.Rcode)
		}
	}
	if err := s.est.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if stats := s.est.Stats(); stats.Ingested != queries {
		t.Fatalf("engine ingested %d, want %d", stats.Ingested, queries)
	}
}

// TestServeShardedWriters: concurrent workers over one O_APPEND file must
// interleave whole lines only, and every record must survive.
func TestServeShardedWriters(t *testing.T) {
	s, f := newTestSink(t, "")
	addr := startWorkers(t, s, f, 4)

	const clients, perClient = 8, 16
	for c := 0; c < clients; c++ {
		for q := 0; q < perClient; q++ {
			m := wireExchange(t, addr, uint16(c*perClient+q+1), "sharded.example")
			if m.Header.Rcode != dnswire.RcodeNXDomain {
				t.Fatalf("client %d query %d rcode = %d", c, q, m.Header.Rcode)
			}
		}
	}
	if recs := readDataset(t, f); len(recs) != clients*perClient {
		t.Fatalf("observed %d records, want %d", len(recs), clients*perClient)
	}
	if err := s.health(); err != nil {
		t.Fatalf("health: %v", err)
	}
}

func TestServeIgnoresGarbage(t *testing.T) {
	s, f := newTestSink(t, "")
	addr := startWorkers(t, s, f, 1)
	client, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	buf := make([]byte, 512)
	if n, err := client.Read(buf); err == nil {
		t.Fatalf("garbage got a %d-byte response", n)
	}
	// The plane is still up afterwards.
	if m := wireExchange(t, addr, 5, "after.example"); m.Header.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("post-garbage rcode = %d", m.Header.Rcode)
	}
}
