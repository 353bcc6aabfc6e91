package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"botmeter/internal/dnswire"
	"botmeter/internal/faults"
	"botmeter/internal/netx"
	"botmeter/internal/obs"
	"botmeter/internal/obs/obstest"
	"botmeter/internal/sim"
)

// startChaoticUpstream runs a vantage-like authoritative sink on addr whose
// socket is wrapped with the fault injector (see serveChaotic).
func startChaoticUpstream(t *testing.T, addr string, inj *faults.Injector, registered map[string]bool) *net.UDPConn {
	t.Helper()
	raw, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort(addr)))
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	go serveChaotic(faults.WrapPacketConn(raw, inj), registered)
	t.Cleanup(func() { raw.Close() })
	return raw
}

// serveChaotic answers queries on conn until it fails: registered domains
// resolve, everything else is NXDOMAIN, and every datagram in either
// direction may be dropped or duplicated per the injector's seeded decision
// stream when conn is wrapped.
func serveChaotic(conn netx.Conn, registered map[string]bool) {
	buf := make([]byte, 65535)
	for {
		n, addr, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		msg, err := dnswire.Decode(buf[:n])
		if err != nil || msg.Header.QR || len(msg.Questions) == 0 {
			continue
		}
		var ip net.IP
		if registered[msg.Questions[0].Name] {
			ip = net.ParseIP("192.0.2.50")
		}
		wire, err := dnswire.NewResponse(msg, ip, 60).Encode()
		if err == nil {
			conn.WriteToUDPAddrPort(wire, addr)
		}
	}
}

// pipeUpstream runs serveChaotic behind inj on one end of an in-memory pipe
// and returns the other end, to be a worker's upstream socket, and a channel
// closed once the sink has returned — after the worker closed its end, with
// every injector tally in. Nothing crosses the kernel, so the only clock
// left in an exchange is the worker's own timers: an answer is handled as
// soon as its goroutines run, never after a timeout because loopback was
// slow.
func pipeUpstream(t *testing.T, inj *faults.Injector, registered map[string]bool) (net.Conn, <-chan struct{}) {
	local, remote := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveChaotic(faults.WrapPacketConn(pipePacketConn{remote}, inj), registered)
	}()
	t.Cleanup(func() { remote.Close() })
	return pipeConn{local}, done
}

// pipeConn reports its own end's closing as a socket would, net.ErrClosed,
// which is what ends a worker's upstream reader.
type pipeConn struct{ net.Conn }

func (c pipeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if errors.Is(err, io.ErrClosedPipe) {
		err = net.ErrClosed
	}
	return n, err
}

// pipePacketConn is a pipe end as a datagram socket: each write is read
// whole by one read of a large enough buffer.
type pipePacketConn struct{ net.Conn }

func (c pipePacketConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	n, err := c.Read(b)
	return n, netip.AddrPort{}, err
}

func (c pipePacketConn) WriteToUDPAddrPort(b []byte, _ netip.AddrPort) (int, error) {
	return c.Write(b)
}

// chaosScenario drives nDomains sequential lookups through a resolver whose
// upstream sits behind 20% injected per-direction loss, and returns the
// rcode sequence plus final counters — the replayable outcome. The client
// is a script fed one query at a time, each once the last was answered, and
// the upstream is on an in-memory pipe, so the outcome is a function of the
// seed.
func chaosScenario(t *testing.T, seed uint64, retries int, serveStale sim.Time) (string, forwarderCounters, faults.Counters) {
	t.Helper()
	const queries = 12
	sc := &scriptConn{from: netip.MustParseAddrPort("10.0.0.7:5353")}
	for i := 0; i < queries; i++ {
		domain := fmt.Sprintf("dga-%02d.chaos.example", i)
		if i == 6 {
			domain = "c2.chaos.example"
		}
		sc.in = append(sc.in, encode(t, dnswire.NewQuery(uint16(100+i), domain)))
	}
	inj := faults.New(seed, faults.Rates{Loss: 0.2})
	cfg := testConfig("in-memory")
	cfg.timeout, cfg.retries, cfg.backoff = 120*time.Millisecond, retries, 2*time.Millisecond
	cfg.serveStale, cfg.seed = serveStale, seed
	f := newForwarder(cfg)
	up, upDone := pipeUpstream(t, inj, map[string]bool{"c2.chaos.example": true})
	w := newWorker(f, sc, up, f.cfg.seed)
	f.workers = []*worker{w}
	sc.idle = waitDrained(w)
	if err := f.serve(); err != nil {
		t.Fatal(err)
	}
	<-upDone
	if len(sc.out) != queries {
		t.Fatalf("%d answers to %d queries (counters %s, chaos %s)", len(sc.out), queries, f.counters(), inj.Counters())
	}
	rcodes := ""
	for i, wire := range sc.out {
		m, err := dnswire.Decode(wire)
		if err != nil || m.Header.ID != uint16(100+i) {
			t.Fatalf("answer %d: %+v, %v; want ID %d", i, m, err, 100+i)
		}
		rcodes += fmt.Sprintf("%d", m.Header.Rcode)
	}
	return rcodes, f.counters(), inj.Counters()
}

// TestChaosLoopbackRetriesAbsorbLoss is the chaos integration test of the
// resolver↔vantage hop under 20% injected loss. With retries the client
// sees zero SERVFAILs; without them it doesn't; and a fixed seed replays
// byte-identically.
func TestChaosLoopbackRetriesAbsorbLoss(t *testing.T) {
	const seed = 3

	// (a) Retries on: the loss is absorbed, no client-visible SERVFAIL.
	rcodes, fc, ic := chaosScenario(t, seed, 6, sim.Hour)
	if fc.servfails != 0 {
		t.Errorf("with retries: %d client-visible SERVFAILs (counters %s, chaos %s)", fc.servfails, fc, ic)
	}
	if fc.retried == 0 {
		t.Errorf("with retries: no retransmissions despite %s", ic)
	}
	if ic.Lost == 0 {
		t.Fatalf("injector never fired: %s", ic)
	}

	// (b) Retries and serve-stale off: the same fault rate leaks SERVFAILs.
	_, fc0, _ := chaosScenario(t, seed, 0, 0)
	if fc0.servfails == 0 {
		t.Errorf("without retries: zero SERVFAILs under 20%% loss (counters %s)", fc0)
	}

	// (c) Deterministic replay: identical seed, byte-identical outcome.
	rcodes2, fc2, ic2 := chaosScenario(t, seed, 6, sim.Hour)
	if rcodes2 != rcodes {
		t.Errorf("rcode sequence diverged across runs: %q vs %q", rcodes, rcodes2)
	}
	if fc2 != fc {
		t.Errorf("forwarder counters diverged: %+v vs %+v", fc, fc2)
	}
	if ic2 != ic {
		t.Errorf("injector counters diverged: %s vs %s", ic, ic2)
	}
}

// TestChaosBlackoutServeStale primes the resolver's cache, then drops the
// upstream into a blackout window; serve-stale keeps answering, and
// disabling it surfaces the outage as SERVFAIL.
func TestChaosBlackoutServeStale(t *testing.T) {
	const seed = 11
	registered := map[string]bool{"c2.dark.example": true}
	// Blackout from the injector's birth for 10 minutes: every datagram to
	// or from the upstream is swallowed for the whole test.
	dark := faults.Rates{Blackouts: []sim.Window{{Start: 0, End: 10 * sim.Minute}}}

	prime := func(staleTTL sim.Time) (*forwarder, net.Conn) {
		clear := startChaoticUpstream(t, "127.0.0.1:0", faults.New(seed, faults.Rates{}), registered)
		cfg := testConfig(clear.LocalAddr().String())
		cfg.timeout, cfg.deadline = 100*time.Millisecond, 300*time.Millisecond
		cfg.retries, cfg.backoff = 1, 2*time.Millisecond
		cfg.posTTL, cfg.negTTL = sim.FromDuration(50*time.Millisecond), sim.FromDuration(50*time.Millisecond)
		cfg.serveStale, cfg.seed = staleTTL, seed
		f, addr := startResolver(t, cfg, 1)
		client := dial(t, addr)
		if m := exchange(t, client, 21, "c2.dark.example"); m.Header.Rcode != dnswire.RcodeNoError {
			t.Fatalf("priming failed: %+v", m)
		}
		// Put a blacked-out upstream on the address the workers' sockets are
		// connected to, and let the cached entry expire.
		clear.Close()
		startChaoticUpstream(t, cfg.upstream, faults.New(seed, dark), registered)
		time.Sleep(80 * time.Millisecond)
		return f, client
	}

	f, client := prime(sim.Hour)
	m := exchange(t, client, 22, "c2.dark.example")
	if m.Header.Rcode != dnswire.RcodeNoError || len(m.Answers) != 1 {
		t.Fatalf("blackout + serve-stale: %+v (counters %s)", m, f.counters())
	}
	if c := f.counters(); c.staleServed != 1 || c.servfails != 0 || c.retried != 1 {
		t.Errorf("blackout counters = %s, want staleServed=1 servfails=0 retried=1", c)
	}

	_, client = prime(0)
	if m := exchange(t, client, 23, "c2.dark.example"); m.Header.Rcode != dnswire.RcodeServFail {
		t.Errorf("blackout without serve-stale: rcode = %d, want SERVFAIL", m.Header.Rcode)
	}
}

// scriptConn is a client socket that delivers a fixed sequence of datagrams
// and then reports closed. Before each delivery it waits for idle, so the
// worker sees one query at a time, as a loop that blocks on each would.
type scriptConn struct {
	in   [][]byte
	from netip.AddrPort
	idle func()

	mu  sync.Mutex
	out [][]byte // what the worker wrote back, in order
}

func (c *scriptConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	c.idle()
	if len(c.in) == 0 {
		return 0, netip.AddrPort{}, net.ErrClosed
	}
	n := copy(b, c.in[0])
	c.in = c.in[1:]
	return n, c.from, nil
}

func (c *scriptConn) WriteToUDPAddrPort(b []byte, _ netip.AddrPort) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, bytes.Clone(b))
	c.mu.Unlock()
	return len(b), nil
}

// waitDrained is a scriptConn idle hook: it returns once no client query is
// waiting on w, i.e. the last one delivered has been answered.
func waitDrained(w *worker) func() {
	return func() {
		w.mu.Lock()
		for w.pending > 0 {
			w.slotFree.Wait()
		}
		w.mu.Unlock()
	}
}
func (c *scriptConn) Close() error        { return nil }
func (c *scriptConn) LocalAddr() net.Addr { return net.UDPAddrFromAddrPort(c.from) }

// TestChaosReplay: one listener under a fixed -chaos-seed, fed one query at
// a time, makes exactly the fault decisions the classic single-socket loop
// made. The expected tallies were recorded by running this script through
// forwarder.serve at the last commit that had it (d17551b).
func TestChaosReplay(t *testing.T) {
	rates, err := faults.ParseSpec("loss=0.2,dup=0.1,delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	sc := &scriptConn{from: netip.MustParseAddrPort("10.0.0.5:4242")}
	for i := 0; i < 300; i++ {
		switch {
		case i%50 == 49:
			sc.in = append(sc.in, []byte{0xde, 0xad, byte(i)})
			continue
		case i%60 == 31:
			sc.in = append(sc.in, encode(t, dnswire.NewResponse(dnswire.NewQuery(uint16(i+1), "loop.example"), nil, 0)))
			continue
		}
		d := fmt.Sprintf("q%d.example", i)
		if i%5 == 0 {
			d = "c2.example"
		}
		sc.in = append(sc.in, encode(t, dnswire.NewQuery(uint16(i+1), d)))
	}
	up := startFakeUpstream(t, "c2.example")
	stop := make(chan struct{})
	defer close(stop)
	go func() { // 192 names go upstream; the channel holds 100
		for {
			select {
			case <-up.received:
			case <-stop:
				return
			}
		}
	}()

	reg := obs.NewRegistry()
	conns := faults.WrapPacketConns([]netx.Conn{sc}, 42, rates, reg)
	cfg := testConfig(up.conn.LocalAddr().String())
	cfg.reg = reg
	f := newForwarder(cfg)
	if err := f.attach(conns); err != nil {
		t.Fatal(err)
	}
	sc.idle = waitDrained(f.workers[0])
	if err := f.serve(); err != nil {
		t.Fatal(err)
	}
	want := faults.Counters{Passed: 408, Lost: 121, Duplicated: 26, Delayed: 90}
	if got := conns[0].(*faults.PacketConn).Injector().Counters(); got != want {
		t.Errorf("chaos counters = %v, the classic loop's were %v", got, want)
	}
	if len(sc.out) != 197 {
		t.Errorf("%d datagrams written, the classic loop wrote 197", len(sc.out))
	}
	c := f.counters()
	if c.queries != 229 || c.forwarded != 192 || c.retried+c.mismatched+c.servfails != 0 {
		t.Errorf("counters = %s, the classic loop's were queries=229 forwarded=192 and no failures", c)
	}
	// The registry reads each of these from its one owner.
	cache, entries := f.cache()
	if got := reg.GaugeValue(metricCacheEntries, "level", "resolver"); got != float64(entries) || entries == 0 {
		t.Errorf("%s = %v, the shard holds %d", metricCacheEntries, got, entries)
	}
	kind := func(k string) []string { return []string{"kind", k} }
	level := []string{"level", "resolver"}
	for _, m := range []struct {
		name   string
		labels []string
		tally  uint64
	}{
		{faults.MetricPassed, nil, want.Passed},
		{faults.MetricInjected, kind("loss"), want.Lost},
		{faults.MetricInjected, kind("duplicate"), want.Duplicated},
		{faults.MetricInjected, kind("servfail"), want.ServFails},
		{faults.MetricInjected, kind("delay"), want.Delayed},
		{faults.MetricInjected, kind("blackout"), want.Blackholed},
		{metricQueries, nil, uint64(c.queries)},
		{metricForwarded, nil, uint64(c.forwarded)},
		{metricCoalesced, nil, uint64(c.coalesced)},
		{metricRetries, nil, uint64(c.retried)},
		{metricMismatched, nil, uint64(c.mismatched)},
		{metricStaleServed, nil, uint64(c.staleServed)},
		{metricServFails, nil, uint64(c.servfails)},
		{metricSendErrors, nil, f.sendErrs.Load()},
		{metricCacheLookups, level, uint64(cache.Lookups)},
		{metricCacheHits, level, uint64(cache.Hits)},
		{metricCacheMisses, level, uint64(cache.Misses())},
		{metricCacheStaleHits, level, uint64(cache.StaleHits)},
		{metricCacheStores, level, uint64(cache.Stores)},
		{metricCacheEvictions, level, uint64(cache.Evictions)},
	} {
		if got := reg.CounterValue(m.name, m.labels...); got != m.tally {
			t.Errorf("%s%v = %d, its owner counted %d", m.name, m.labels, got, m.tally)
		}
	}
}

// TestRunChaos: with -chaos the daemon serves from the same workers, on as
// many sockets as -listeners asks for. Under dup=1 every answer arrives
// twice, so the injector is demonstrably on the path a client's query takes.
func TestRunChaos(t *testing.T) {
	up := startFakeUpstream(t, "chaos.example")
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	addr := probe.LocalAddr().String()
	probe.Close()
	logf, err := os.Create(filepath.Join(t.TempDir(), "resolver.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", addr, "-upstream", up.conn.LocalAddr().String(),
			"-listeners", "2", "-chaos", "dup=1", "-chaos-seed", "5"}, logf)
	}()
	client := dial(t, addr)
	var first *dnswire.Message
	eventually(t, "the daemon answers", func() bool {
		sendQuery(t, client, 77, "chaos.example")
		first, err = readResponse(t, client, 100*time.Millisecond)
		return err == nil
	})
	second, err := readResponse(t, client, time.Second)
	if err != nil || first.Header.ID != 77 || second.Header.ID != 77 || len(second.Answers) != 1 {
		t.Fatalf("under dup=1 the answer should arrive twice: %+v, then %+v (%v)", first, second, err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(logf.Name())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"chaos enabled on client sockets", "dup=1", "socket=0"}
	if strings.Contains(string(log), "reuseport=true") {
		want = append(want, "listeners=2", "socket=1")
	}
	for _, want := range want {
		if !strings.Contains(string(log), want) {
			t.Errorf("log lacks %q:\n%s", want, log)
		}
	}
}

// TestMetricInventory pins every series a two-listener resolver under
// -chaos exports: family, TYPE and label set.
// The list was taken before the daemon's counts became callbacks over their
// owners' tallies; how a series is fed must not rename, retype or relabel it.
func TestMetricInventory(t *testing.T) {
	up := startFakeUpstream(t, "inventory.example")
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	probe.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	ln.Close()
	addrs := [2]string{probe.LocalAddr().String(), ln.Addr().String()}
	logf, err := os.Create(filepath.Join(t.TempDir(), "resolver.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", addrs[0], "-upstream", up.conn.LocalAddr().String(),
			"-listeners", "2", "-chaos", "loss=0.1,dup=0.1,delay=1ms", "-obs-addr", addrs[1]}, logf)
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}()
	client := dial(t, addrs[0])
	eventually(t, "the daemon answers", func() bool {
		sendQuery(t, client, 5, "inventory.example")
		_, err := readResponse(t, client, 100*time.Millisecond)
		return err == nil
	})
	resp, err := http.Get("http://" + addrs[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidatePrometheusText(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	got, err := obstest.Inventory(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`dnssim_cache_entries gauge {level="resolver"}`,
		`dnssim_cache_evictions_total counter {level="resolver"}`,
		`dnssim_cache_hits_total counter {level="resolver"}`,
		`dnssim_cache_lookups_total counter {level="resolver"}`,
		`dnssim_cache_misses_total counter {level="resolver"}`,
		`dnssim_cache_stale_hits_total counter {level="resolver"}`,
		`dnssim_cache_stores_total counter {level="resolver"}`,
		`faults_injected_total counter {kind="blackout"}`,
		`faults_injected_total counter {kind="delay"}`,
		`faults_injected_total counter {kind="duplicate"}`,
		`faults_injected_total counter {kind="loss"}`,
		`faults_injected_total counter {kind="servfail"}`,
		`faults_passed_total counter {}`,
		`resolver_coalesced_total counter {}`,
		`resolver_forwarded_total counter {}`,
		`resolver_inflight gauge {}`,
		`resolver_inflight_full_total counter {}`,
		`resolver_mismatched_total counter {}`,
		`resolver_queries_total counter {}`,
		`resolver_query_seconds histogram {}`,
		`resolver_retries_total counter {}`,
		`resolver_send_errors_total counter {}`,
		`resolver_servfails_total counter {}`,
		`resolver_stale_served_total counter {}`,
		`resolver_upstream_attempt_seconds histogram {}`,
		`resolver_upstream_consecutive_failures gauge {}`,
	}
	if !slices.Equal(got, want) {
		t.Errorf("/metrics inventory:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
