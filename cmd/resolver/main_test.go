package main

import (
	"context"
	"log/slog"
	"net"
	"testing"
	"time"

	"botmeter/internal/dnswire"
	"botmeter/internal/netx"
	"botmeter/internal/sim"
)

// fakeUpstream answers every query: registered domains resolve, everything
// else is NXDOMAIN. It counts the queries it receives.
type fakeUpstream struct {
	conn       net.PacketConn
	registered map[string]bool
	received   chan string
}

func startFakeUpstream(t *testing.T, registered ...string) *fakeUpstream {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	u := &fakeUpstream{
		conn:       conn,
		registered: make(map[string]bool),
		received:   make(chan string, 100),
	}
	for _, d := range registered {
		u.registered[d] = true
	}
	go func() {
		buf := make([]byte, 65535)
		for {
			n, addr, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			msg, err := dnswire.Decode(buf[:n])
			if err != nil || len(msg.Questions) == 0 {
				continue
			}
			name := msg.Questions[0].Name
			u.received <- name
			var ip net.IP
			if u.registered[name] {
				ip = net.ParseIP("192.0.2.77")
			}
			resp, err := dnswire.NewResponse(msg, ip, 60).Encode()
			if err == nil {
				conn.WriteTo(resp, addr)
			}
		}
	}()
	t.Cleanup(func() { conn.Close() })
	return u
}

// testConfig is a one-attempt policy with day-long TTLs against upstream.
func testConfig(upstream string) forwarderConfig {
	return forwarderConfig{
		upstream: upstream,
		timeout:  time.Second,
		deadline: 2 * time.Second,
		retries:  0,
		posTTL:   sim.Day,
		negTTL:   2 * sim.Hour,
		seed:     1,
		log:      slog.New(slog.DiscardHandler),
	}
}

// serveOn runs a forwarder over conns until the test ends and checks that
// its workers then return cleanly.
func serveOn(t *testing.T, cfg forwarderConfig, conns []netx.Conn) *forwarder {
	t.Helper()
	f := newForwarder(cfg)
	if err := f.attach(conns); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.serve() }()
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return f
}

// startResolver serves cfg on n loopback sockets and returns the forwarder
// and the address clients dial.
func startResolver(t *testing.T, cfg forwarderConfig, n int) (*forwarder, string) {
	t.Helper()
	conns, _, err := netx.ListenUDP(context.Background(), "127.0.0.1:0", n)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	return serveOn(t, cfg, conns), conns[0].LocalAddr().String()
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func sendQuery(t *testing.T, client net.Conn, id uint16, domain string) {
	t.Helper()
	wire, err := dnswire.NewQuery(id, domain).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(wire); err != nil {
		t.Fatal(err)
	}
}

// readResponse decodes the next datagram on the client socket.
func readResponse(t *testing.T, client net.Conn, within time.Duration) (*dnswire.Message, error) {
	t.Helper()
	client.SetReadDeadline(time.Now().Add(within))
	buf := make([]byte, 4096)
	n, err := client.Read(buf)
	if err != nil {
		return nil, err
	}
	m, err := dnswire.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return m, nil
}

// exchange sends one query over the client and decodes the response.
func exchange(t *testing.T, client net.Conn, id uint16, domain string) *dnswire.Message {
	t.Helper()
	sendQuery(t, client, id, domain)
	m, err := readResponse(t, client, 3*time.Second)
	if err != nil {
		t.Fatalf("no response for %s: %v", domain, err)
	}
	if m.Header.ID != id {
		t.Fatalf("response for %s carries ID %d, want %d", domain, m.Header.ID, id)
	}
	return m
}

// eventually polls cond until it holds; the test fails if it never does.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func (u *fakeUpstream) expectQuery(t *testing.T, want string) {
	t.Helper()
	select {
	case got := <-u.received:
		if got != want {
			t.Fatalf("upstream saw %q, want %q", got, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("upstream never saw %q", want)
	}
}

func (u *fakeUpstream) expectQuiet(t *testing.T, why string) {
	t.Helper()
	select {
	case got := <-u.received:
		t.Fatalf("%s: upstream saw %q", why, got)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestResolvesAndCaches drives a client through the whole hierarchy over
// real sockets: resolver worker, its upstream socket, the upstream.
func TestResolvesAndCaches(t *testing.T) {
	up := startFakeUpstream(t, "c2.example.com")
	f, addr := startResolver(t, testConfig(up.conn.LocalAddr().String()), 1)
	client := dial(t, addr)

	// First query: forwarded upstream, positive answer relayed.
	m := exchange(t, client, 1, "c2.example.com")
	if m.Header.Rcode != dnswire.RcodeNoError || len(m.Answers) != 1 {
		t.Fatalf("positive answer = %+v", m)
	}
	if got := net.IP(m.Answers[0].Data).String(); got != "192.0.2.77" {
		t.Fatalf("relayed answer = %s, want the upstream's 192.0.2.77", got)
	}
	up.expectQuery(t, "c2.example.com")

	// Second query: served from the worker's cache shard — the upstream must
	// NOT see it.
	m = exchange(t, client, 2, "c2.example.com")
	if m.Header.Rcode != dnswire.RcodeNoError || len(m.Answers) != 1 {
		t.Fatalf("cached answer = %+v", m)
	}
	up.expectQuiet(t, "cache hit leaked")
	if c := f.counters(); c.queries != 2 || c.forwarded != 1 {
		t.Errorf("counters = %s; want 2 queries, 1 forwarded", c)
	}
}

// TestCanonicalisesCase pins the ASCII-lowercase decode: a mixed-case
// retransmission of a cached name must hit the shard cache, and a
// mixed-case miss must be matched to its (case-preserving) upstream answer.
func TestCanonicalisesCase(t *testing.T) {
	up := startFakeUpstream(t)
	_, addr := startResolver(t, testConfig(up.conn.LocalAddr().String()), 1)
	client := dial(t, addr)

	if m := exchange(t, client, 21, "CaSe.ExAmPlE.CoM"); m.Header.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("first answer = %+v", m)
	}
	up.expectQuery(t, "CaSe.ExAmPlE.CoM")
	if m := exchange(t, client, 22, "case.example.com"); m.Header.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("lower-case answer = %+v", m)
	}
	up.expectQuiet(t, "differently-cased query missed the cache")
}

func TestNegativeCachingAndGarbage(t *testing.T) {
	up := startFakeUpstream(t) // nothing registered: every answer is NXDOMAIN
	f, addr := startResolver(t, testConfig(up.conn.LocalAddr().String()), 1)
	client := dial(t, addr)

	if m := exchange(t, client, 31, "nxd.example.org"); m.Header.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("rcode = %d, want NXDOMAIN", m.Header.Rcode)
	}
	up.expectQuery(t, "nxd.example.org")
	// Cached negative: answered locally.
	if m := exchange(t, client, 32, "nxd.example.org"); m.Header.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("cached rcode = %d, want NXDOMAIN", m.Header.Rcode)
	}
	up.expectQuiet(t, "negative cache miss")

	// Garbage is dropped, and so are responses (loop prevention).
	if _, err := client.Write([]byte{0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	r, err := dnswire.NewResponse(dnswire.NewQuery(6, "x.com"), nil, 0).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(r); err != nil {
		t.Fatal(err)
	}
	if m, err := readResponse(t, client, 150*time.Millisecond); err == nil {
		t.Fatalf("a non-query got a response: %+v", m)
	}
	up.expectQuiet(t, "a non-query was forwarded")
	if c := f.counters(); c.queries != 2 {
		t.Errorf("queries = %d, want 2 (non-queries are not counted)", c.queries)
	}
}

func TestServfailOnDeadUpstream(t *testing.T) {
	// An address nothing listens on: every attempt times out.
	dead, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	cfg := testConfig(dead.LocalAddr().String())
	cfg.timeout, cfg.deadline = 100*time.Millisecond, 300*time.Millisecond
	dead.Close()
	f, addr := startResolver(t, cfg, 1)
	if m := exchange(t, dial(t, addr), 41, "gone.example"); m.Header.Rcode != dnswire.RcodeServFail {
		t.Fatalf("rcode = %d, want SERVFAIL", m.Header.Rcode)
	}
	if c := f.counters(); c.servfails != 1 || c.forwarded != 0 {
		t.Errorf("counters = %s, want 1 servfail and nothing forwarded", c)
	}
}

// TestMultiSocket drives the sharded shape end to end: many client sockets
// against 4 SO_REUSEPORT listeners, every query answered.
func TestMultiSocket(t *testing.T) {
	up := startFakeUpstream(t, "multi.example.com")
	conns, reuse, err := netx.ListenUDP(context.Background(), "127.0.0.1:0", 4)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	f := serveOn(t, testConfig(up.conn.LocalAddr().String()), conns)
	addr := conns[0].LocalAddr().String()

	const clients = 16
	for i := 0; i < clients; i++ {
		m := exchange(t, dial(t, addr), uint16(100+i), "multi.example.com")
		if len(m.Answers) != 1 {
			t.Fatalf("client %d answer = %+v", i, m)
		}
	}
	c := f.counters()
	if c.queries != clients {
		t.Fatalf("queries = %d, want %d", c.queries, clients)
	}
	// Each shard forwards its first sight of the domain at most once.
	maxMisses := len(conns)
	if !reuse {
		maxMisses = 1
	}
	if c.forwarded < 1 || c.forwarded > maxMisses {
		t.Fatalf("forwarded = %d, want 1..%d (one miss per shard at most)", c.forwarded, maxMisses)
	}
}
