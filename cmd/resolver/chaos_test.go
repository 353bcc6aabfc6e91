package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"botmeter/internal/dnswire"
	"botmeter/internal/faults"
	"botmeter/internal/sim"
)

// startChaoticUpstream runs a vantage-like authoritative sink on addr whose
// socket is wrapped with the fault injector: registered domains resolve,
// everything else is NXDOMAIN, and every datagram in either direction may
// be dropped/duplicated per the injector's seeded decision stream.
func startChaoticUpstream(t *testing.T, addr string, inj *faults.Injector, registered map[string]bool) net.PacketConn {
	t.Helper()
	raw, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	conn := faults.WrapPacketConn(raw, inj)
	go func() {
		buf := make([]byte, 65535)
		for {
			n, addr, err := conn.ReadFrom(buf)
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
				conn.WriteTo(wire, addr)
			}
		}
	}()
	t.Cleanup(func() { raw.Close() })
	return raw
}

// chaosScenario drives nDomains sequential lookups through a resolver whose
// upstream sits behind 20% injected per-direction loss, and returns the
// rcode sequence plus final counters — the replayable outcome.
func chaosScenario(t *testing.T, seed uint64, retries int, serveStale sim.Time) (string, forwarderCounters, faults.Counters) {
	t.Helper()
	inj := faults.New(seed, faults.Rates{Loss: 0.2})
	up := startChaoticUpstream(t, "127.0.0.1:0", inj, map[string]bool{"c2.chaos.example": true})
	cfg := testConfig(up.LocalAddr().String())
	cfg.timeout, cfg.retries, cfg.backoff = 120*time.Millisecond, retries, 2*time.Millisecond
	cfg.serveStale, cfg.seed = serveStale, seed
	f, addr := startResolver(t, cfg, 1)
	client := dial(t, addr)
	rcodes := ""
	for i := 0; i < 12; i++ {
		domain := fmt.Sprintf("dga-%02d.chaos.example", i)
		if i == 6 {
			domain = "c2.chaos.example"
		}
		m := exchange(t, client, uint16(100+i), domain)
		rcodes += fmt.Sprintf("%d", m.Header.Rcode)
	}
	return rcodes, f.counters(), inj.Counters()
}

// TestChaosLoopbackRetriesAbsorbLoss is the live-pipeline chaos
// integration test: resolver↔vantage-style loopback under 20% injected
// loss. With retries the client sees zero SERVFAILs; without them it
// doesn't; and a fixed seed replays byte-identically.
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
	from net.Addr
	idle func()

	mu     sync.Mutex
	writes int
}

func (c *scriptConn) ReadFrom(b []byte) (int, net.Addr, error) {
	c.idle()
	if len(c.in) == 0 {
		return 0, nil, net.ErrClosed
	}
	n := copy(b, c.in[0])
	c.in = c.in[1:]
	return n, c.from, nil
}

func (c *scriptConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	return len(b), nil
}
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return c.from }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// TestChaosReplay: one listener under a fixed -chaos-seed, fed one query at
// a time, makes exactly the fault decisions the classic single-socket loop
// made. The expected tallies were recorded by running this script through
// forwarder.serve at the last commit that had it (d17551b).
func TestChaosReplay(t *testing.T) {
	rates, err := faults.ParseSpec("loss=0.2,dup=0.1,delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	sc := &scriptConn{from: &net.UDPAddr{IP: net.IPv4(10, 0, 0, 5), Port: 4242}}
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

	conns := faults.WrapPacketConns([]net.PacketConn{sc}, 42, rates, nil)
	f := newForwarder(testConfig(up.conn.LocalAddr().String()))
	if err := f.attach(conns); err != nil {
		t.Fatal(err)
	}
	w := f.workers[0]
	sc.idle = func() {
		w.mu.Lock()
		for w.pending > 0 {
			w.slotFree.Wait()
		}
		w.mu.Unlock()
	}
	if err := f.serve(); err != nil {
		t.Fatal(err)
	}
	want := faults.Counters{Passed: 408, Lost: 121, Duplicated: 26, Delayed: 90}
	if got := conns[0].(*faults.PacketConn).Injector().Counters(); got != want {
		t.Errorf("chaos counters = %v, the classic loop's were %v", got, want)
	}
	if sc.writes != 197 {
		t.Errorf("%d datagrams written, the classic loop wrote 197", sc.writes)
	}
	if c := f.counters(); c.queries != 229 || c.forwarded != 192 || c.retried+c.mismatched+c.servfails != 0 {
		t.Errorf("counters = %s, the classic loop's were queries=229 forwarded=192 and no failures", c)
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
