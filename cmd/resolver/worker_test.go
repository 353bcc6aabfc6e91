package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"botmeter/internal/dnswire"
	"botmeter/internal/netx"
	"botmeter/internal/obs"
)

// TestNoHeadOfLineBlocking: while the upstream sits on the answer to A, a
// cached name and a second miss from other clients of the same socket are
// answered. A loop that blocks on each miss answers neither until A's
// attempt times out.
func TestNoHeadOfLineBlocking(t *testing.T) {
	sawSlow := make(chan struct{})
	up := startScriptedUpstream(t, func(q *dnswire.Message, count int) [][]byte {
		if q.Questions[0].Name == "a.slow.example" {
			close(sawSlow)
			return nil
		}
		return [][]byte{positiveResponse(t, q)}
	})
	cfg := testConfig(up.conn.LocalAddr().String())
	cfg.timeout, cfg.deadline = time.Minute, time.Minute
	f, addr := startResolver(t, cfg, 1)
	slow, hit, other := dial(t, addr), dial(t, addr), dial(t, addr)

	exchange(t, hit, 1, "cached.example")
	sendQuery(t, slow, 2, "a.slow.example")
	<-sawSlow
	if m := exchange(t, hit, 3, "cached.example"); len(m.Answers) != 1 {
		t.Fatalf("cache hit behind a pending miss = %+v", m)
	}
	if m := exchange(t, other, 4, "b.fast.example"); len(m.Answers) != 1 {
		t.Fatalf("second miss behind a pending miss = %+v", m)
	}
	if m, err := readResponse(t, slow, 50*time.Millisecond); err == nil {
		t.Fatalf("the withheld query was answered: %+v", m)
	}
	if n := f.inflight(); n != 1 {
		t.Errorf("inflight = %d, want the withheld exchange alone", n)
	}
	if n := up.received.Load(); n != 3 {
		t.Errorf("upstream saw %d queries, want 3 (two misses and the priming)", n)
	}
}

// TestCoalescing: concurrent misses for one name, from distinct sockets
// under distinct IDs, put one query upstream; every client is answered under
// its own ID when that completes.
func TestCoalescing(t *testing.T) {
	const clients = 16
	release := make(chan struct{})
	up := startScriptedUpstream(t, func(q *dnswire.Message, count int) [][]byte {
		<-release
		return [][]byte{positiveResponse(t, q)}
	})
	reg := obs.NewRegistry()
	cfg := testConfig(up.conn.LocalAddr().String())
	cfg.reg = reg
	f, addr := startResolver(t, cfg, 1)

	conns := make([]net.Conn, clients)
	for i := range conns {
		conns[i] = dial(t, addr)
		sendQuery(t, conns[i], uint16(1000+i), "Same.Example")
	}
	eventually(t, "every later query has joined the first", func() bool { return f.counters().coalesced == clients-1 })
	// A retransmission joins too, but as the query already waiting: its
	// client is owed one answer, and the table holds one place for it.
	sendQuery(t, conns[0], 1000, "Same.Example")
	eventually(t, "the retransmission has been seen", func() bool { return f.counters().coalesced == clients })
	w := f.workers[0]
	w.mu.Lock()
	pending := w.pending
	w.mu.Unlock()
	if pending != clients {
		t.Errorf("%d queries waiting, want %d", pending, clients)
	}
	if got := reg.GaugeValue(metricInflight); got != 1 {
		t.Errorf("%s = %v with one name in flight", metricInflight, got)
	}
	close(release)
	for i, c := range conns {
		m, err := readResponse(t, c, 3*time.Second)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if m.Header.ID != uint16(1000+i) || m.Header.Rcode != dnswire.RcodeNoError || len(m.Answers) != 1 {
			t.Fatalf("client %d answer = %+v", i, m)
		}
		if !strings.EqualFold(m.Questions[0].Name, "same.example") {
			t.Fatalf("client %d question = %q", i, m.Questions[0].Name)
		}
	}
	if m, err := readResponse(t, conns[0], 50*time.Millisecond); err == nil {
		t.Errorf("the retransmission got an answer of its own: %+v", m)
	}
	if n := up.received.Load(); n != 1 {
		t.Errorf("upstream received %d queries for one name, want 1", n)
	}
	for name, want := range map[string]uint64{metricQueries: clients + 1, metricForwarded: 1, metricCoalesced: clients} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.GaugeValue(metricInflight); got != 0 {
		t.Errorf("%s = %v after the exchange completed", metricInflight, got)
	}
}

// TestTableFull: against a silent upstream the in-flight table fills to its
// bound and stays there — the client loop stops reading, the overflow waits
// in the socket buffer — and once attempts time out and slots free, the
// overflow is taken in and answered too, through recycled entries.
func TestTableFull(t *testing.T) {
	const extra, sockets = 8, 8
	silent := startScriptedUpstream(t, func(*dnswire.Message, int) [][]byte { return nil })
	reg := obs.NewRegistry()
	cfg := testConfig(silent.conn.LocalAddr().String())
	cfg.timeout, cfg.deadline, cfg.reg = 800*time.Millisecond, 800*time.Millisecond, reg
	f, addr := startResolver(t, cfg, 1)
	w := f.workers[0]

	var servfails atomic.Int64
	conns := make([]net.Conn, sockets)
	for i := range conns {
		conns[i] = dial(t, addr)
		go func(c net.Conn) {
			buf := make([]byte, 512)
			for {
				n, err := c.Read(buf)
				if err != nil {
					return
				}
				if m, err := dnswire.Decode(buf[:n]); err == nil && m.Header.Rcode == dnswire.RcodeServFail {
					servfails.Add(1)
				}
			}
		}(conns[i])
	}
	send := func(from, to int) {
		for i := from; i < to; i++ {
			sendQuery(t, conns[i%sockets], uint16(i), fmt.Sprintf("n%d.full.example", i))
		}
	}
	wave := func(base int) {
		// Paced, so that the socket buffer never holds more than a batch.
		for sent := 0; sent < maxInflight; sent += 64 {
			send(base+sent, base+sent+64)
			eventually(t, "the batch is in flight", func() bool { return f.inflight() == sent+64 })
		}
	}
	freeEntries := func() (n int) {
		w.mu.Lock()
		defer w.mu.Unlock()
		for e := w.free; e != nil; e = e.next {
			n++
		}
		return n
	}

	wave(0)
	send(maxInflight, maxInflight+extra)
	eventually(t, "the client loop has stopped reading", func() bool { return reg.CounterValue(metricInflightFull) >= 1 })
	w.mu.Lock()
	pending := w.pending
	w.mu.Unlock()
	if pending > maxInflight {
		t.Fatalf("%d queries held with %d sent, the bound is %d", pending, maxInflight+extra, maxInflight)
	}
	eventually(t, "everyone has been answered SERVFAIL", func() bool { return servfails.Load() == maxInflight+extra })
	if n := freeEntries(); n != maxInflight {
		t.Fatalf("%d entries on the free list after the table drained, want %d", n, maxInflight)
	}

	// A second wave reuses them: the table does not grow.
	wave(2 * maxInflight)
	if n := freeEntries(); n != 0 {
		t.Fatalf("%d entries still free with the table full again", n)
	}
	eventually(t, "the second wave has been answered", func() bool { return servfails.Load() == 2*maxInflight+extra })
	if n := freeEntries(); n != maxInflight {
		t.Fatalf("%d entries on the free list after the second wave, want %d", n, maxInflight)
	}
	if c := f.counters(); c.servfails != 2*maxInflight+extra || f.inflight() != 0 {
		t.Errorf("counters = %s, inflight = %d", c, f.inflight())
	}
}

// socketless builds an attached forwarder whose worker the test drives by
// hand: nothing reads the client socket or the upstream socket.
func socketless(t *testing.T, cfg forwarderConfig) *worker {
	t.Helper()
	conns, _, err := netx.ListenUDP(context.Background(), "127.0.0.1:0", 1)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	f := newForwarder(cfg)
	if err := f.attach(conns); err != nil {
		t.Fatal(err)
	}
	w := f.workers[0]
	t.Cleanup(func() {
		w.mu.Lock()
		w.closed = true
		for _, e := range w.byName {
			e.timer.Stop()
		}
		w.mu.Unlock()
		conns[0].Close()
		f.close()
	})
	return w
}

// TestHitPathZeroAllocs: with a miss in flight on the same worker and a
// tracer sampling one query in 16, an unsampled cache hit allocates nothing.
func TestHitPathZeroAllocs(t *testing.T) {
	silent := startScriptedUpstream(t, func(*dnswire.Message, int) [][]byte { return nil })
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 16})
	cfg := testConfig(silent.conn.LocalAddr().String())
	cfg.timeout, cfg.deadline = time.Minute, time.Minute
	cfg.reg, cfg.tracer = obs.NewRegistry(), tracer
	w := socketless(t, cfg)
	from := netip.MustParseAddrPort("127.0.0.1:9")

	hot := encode(t, dnswire.NewQuery(7, "hot.example"))
	w.cache.Store(w.f.now(), "hot.example", false)
	if resp := w.handle(encode(t, dnswire.NewQuery(8, "pending.example")), from); resp != nil || len(w.byName) != 1 {
		t.Fatalf("the miss was not parked: response %x, %d in flight", resp, len(w.byName))
	}
	// That miss was the tracer's first start, so it is the sampled one of its
	// sixteen; the next fifteen are not.
	allocs := testing.AllocsPerRun(14, func() {
		if w.handle(hot, from) == nil {
			t.Fatal("no answer")
		}
	})
	if allocs != 0 {
		t.Fatalf("a cache hit allocates %.0f times, want 0", allocs)
	}
	if n := tracer.Started(); n != 16 {
		t.Fatalf("tracer saw %d starts, want 16", n)
	}
	// The seventeenth is sampled, and followed to its answer.
	if w.handle(hot, from) == nil {
		t.Fatal("no answer")
	}
	spans := tracer.Snapshot()
	if len(spans) != 1 || spans[0].Attrs["domain"] != "hot.example" || spans[0].Attrs["outcome"] != "cache_hit" {
		t.Fatalf("sampled hit's span = %+v", spans)
	}

	// A miss → store → hit cycle over 20 000 distinct names, on a worker
	// with metrics and no tracer: each name misses and parks an exchange,
	// which completes as an upstream NXDOMAIN would and stores the name; then
	// every name of the batch is answered from the shard, allocating nothing.
	// Its upstream is a socket nobody reads, so that no other goroutine
	// allocates while the hits are counted.
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	t.Cleanup(func() { sink.Close() })
	cfg = testConfig(sink.LocalAddr().String())
	cfg.timeout, cfg.deadline, cfg.reg = time.Minute, time.Minute, obs.NewRegistry()
	w = socketless(t, cfg)
	const names, batch = 20000, 1000
	pkts := make([][]byte, batch)
	for base := 0; base < names; base += batch {
		for i := range pkts {
			name := fmt.Sprintf("n%d.cycle.example", base+i)
			pkts[i] = encode(t, dnswire.NewQuery(uint16(i), name))
			if resp := w.handle(pkts[i], from); resp != nil {
				t.Fatalf("%s answered before it was stored: %x", name, resp)
			}
			w.mu.Lock()
			e := w.byName[name]
			if e != nil {
				w.finishOK(e, append([]byte(nil), pkts[i]...), dnswire.RcodeNXDomain)
			}
			w.mu.Unlock()
			if e == nil {
				t.Fatalf("the miss for %s was not parked", name)
			}
		}
		next := 0
		allocs := testing.AllocsPerRun(batch-1, func() { // plus one warm-up: each name once
			if w.handle(pkts[next], from) == nil {
				t.Fatal("no answer")
			}
			next++
		})
		if allocs != 0 {
			t.Fatalf("names %d–%d: a hit after the cycle allocates %.2f times, want 0", base, base+batch-1, allocs)
		}
	}
	if n := w.cache.Len(); n != names {
		t.Errorf("the shard holds %d names, want %d", n, names)
	}
}

// TestCachedAnswerFollowsQuestionType: the sinkhole is an IPv4 address, so
// a cached NOERROR name gets it only for an A question; any other type is
// answered NOERROR with no answer records, under the question asked.
func TestCachedAnswerFollowsQuestionType(t *testing.T) {
	silent := startScriptedUpstream(t, func(*dnswire.Message, int) [][]byte { return nil })
	w := socketless(t, testConfig(silent.conn.LocalAddr().String()))
	w.cache.Store(w.f.now(), "hot.example", false)
	from := netip.MustParseAddrPort("127.0.0.1:9")
	for _, typ := range []uint16{dnswire.TypeA, dnswire.TypeAAAA} {
		q := dnswire.NewQuery(9, "hot.example")
		q.Questions[0].Type = typ
		m, err := dnswire.Decode(w.handle(encode(t, q), from))
		if err != nil {
			t.Fatal(err)
		}
		wantAnswers := 0
		if typ == dnswire.TypeA {
			wantAnswers = 1
		}
		if m.Header.Rcode != dnswire.RcodeNoError || len(m.Answers) != wantAnswers || m.Questions[0].Type != typ {
			t.Errorf("type %d question: rcode %d, %d answers, question type %d; want 0, %d, %d",
				typ, m.Header.Rcode, len(m.Answers), m.Questions[0].Type, wantAnswers, typ)
		}
		if wantAnswers == 1 && m.Answers[0].Type != dnswire.TypeA {
			t.Errorf("A question answered with type %d", m.Answers[0].Type)
		}
	}
}

// eventNames flattens a span's events for comparison.
func eventNames(s obs.SpanRecord) string {
	var names []string
	for _, ev := range s.Event {
		names = append(names, ev.Name)
	}
	return strings.Join(names, " ")
}

// TestSpansFollowQueries: a sampled query's span crosses the hand-off to the
// upstream reader and records the exchange's steps; a query that joined it
// records that instead.
func TestSpansFollowQueries(t *testing.T) {
	joined := make(chan struct{})
	up := startScriptedUpstream(t, func(q *dnswire.Message, count int) [][]byte {
		if count == 1 { // fails at once; the retry is answered
			return [][]byte{encode(t, &dnswire.Message{
				Header:    dnswire.Header{ID: q.Header.ID, QR: true, Rcode: dnswire.RcodeServFail},
				Questions: q.Questions,
			})}
		}
		<-joined
		return [][]byte{positiveResponse(t, q)}
	})
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	cfg := testConfig(up.conn.LocalAddr().String())
	cfg.retries, cfg.backoff, cfg.tracer = 1, time.Millisecond, tracer
	f, addr := startResolver(t, cfg, 1)
	first, second := dial(t, addr), dial(t, addr)

	sendQuery(t, first, 1, "traced.example")
	eventually(t, "the first query is in flight", func() bool { return f.inflight() == 1 })
	sendQuery(t, second, 2, "traced.example")
	eventually(t, "the second query has joined", func() bool { return f.counters().coalesced == 1 })
	close(joined)
	for _, c := range []net.Conn{first, second} {
		if _, err := readResponse(t, c, 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	exchange(t, first, 3, "traced.example")

	spans := tracer.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3: %+v", len(spans), spans)
	}
	want := []struct{ outcome, events string }{
		{"forwarded", "cache_miss upstream_attempt attempt_failed retry upstream_attempt upstream_ok"},
		{"coalesced", "cache_miss coalesced"},
		{"cache_hit", "cache_hit"},
	}
	for i, s := range spans {
		if s.Name != "resolver.query" || s.Attrs["domain"] != "traced.example" ||
			s.Attrs["outcome"] != want[i].outcome || eventNames(s) != want[i].events {
			t.Errorf("span %d = %+v, want outcome %q after %q", i, s, want[i].outcome, want[i].events)
		}
	}
}

// failingConn refuses its first send.
type failingConn struct {
	netx.Conn
	failed atomic.Bool
}

func (c *failingConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	if c.failed.CompareAndSwap(false, true) {
		return 0, errors.New("sendto: no buffer space available")
	}
	return c.Conn.WriteToUDPAddrPort(b, addr)
}

// TestSendErrorKeepsServing: a response the socket refuses is counted, and
// the worker goes on reading that socket.
func TestSendErrorKeepsServing(t *testing.T) {
	up := startFakeUpstream(t, "send.example")
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	reg := obs.NewRegistry()
	cfg := testConfig(up.conn.LocalAddr().String())
	cfg.reg = reg
	f := serveOn(t, cfg, []netx.Conn{&failingConn{Conn: raw}})
	client := dial(t, raw.LocalAddr().String())

	sendQuery(t, client, 1, "send.example")
	if m, err := readResponse(t, client, 150*time.Millisecond); err == nil {
		t.Fatalf("the refused send arrived: %+v", m)
	}
	if m := exchange(t, client, 2, "send.example"); len(m.Answers) != 1 {
		t.Fatalf("answer after the refused send = %+v", m)
	}
	if got := reg.CounterValue(metricSendErrors); got != 1 {
		t.Errorf("%s = %d, want 1", metricSendErrors, got)
	}
	if err := f.health(); err != nil {
		t.Errorf("health: %v", err)
	}
}
