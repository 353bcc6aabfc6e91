package faults

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"botmeter/internal/dnssim"
	"botmeter/internal/netx"
	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

func TestParseSpec(t *testing.T) {
	r, err := ParseSpec("loss=0.2,dup=0.01,servfail=0.05,delay=200ms,blackout=10s+2s,blackout=1m+30s")
	if err != nil {
		t.Fatal(err)
	}
	if r.Loss != 0.2 || r.Duplicate != 0.01 || r.ServFail != 0.05 {
		t.Errorf("probabilities = %+v", r)
	}
	if r.Delay != sim.FromDuration(200*time.Millisecond) {
		t.Errorf("delay = %v", r.Delay)
	}
	want := []sim.Window{
		{Start: 10 * sim.Second, End: 12 * sim.Second},
		{Start: sim.Minute, End: sim.Minute + 30*sim.Second},
	}
	if len(r.Blackouts) != 2 || r.Blackouts[0] != want[0] || r.Blackouts[1] != want[1] {
		t.Errorf("blackouts = %v, want %v", r.Blackouts, want)
	}
	if !r.Enabled() {
		t.Error("spec should be enabled")
	}

	// Round-trip through String.
	r2, err := ParseSpec(r.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", r.String(), err)
	}
	if r2.Loss != r.Loss || r2.Delay != r.Delay || len(r2.Blackouts) != len(r.Blackouts) {
		t.Errorf("round-trip: %+v vs %+v", r2, r)
	}

	for _, empty := range []string{"", "  ", "none"} {
		r, err := ParseSpec(empty)
		if err != nil || r.Enabled() {
			t.Errorf("ParseSpec(%q) = %+v, %v", empty, r, err)
		}
	}
	for _, bad := range []string{
		"loss", "loss=2", "loss=-0.1", "loss=x", "dup=1.5", "servfail=nan",
		"delay=fast", "delay=-1s", "blackout=10s", "blackout=x+2s",
		"blackout=10s+0s", "blackout=10s+-2s", "jitter=0.5",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

// TestInjectorDeterminism: same seed and rates replay the identical decision
// stream and counters; a different seed diverges.
func TestInjectorDeterminism(t *testing.T) {
	rates := Rates{Loss: 0.3, Duplicate: 0.1, ServFail: 0.2, Delay: 50 * sim.Millisecond}
	run := func(seed uint64) (string, Counters) {
		inj := New(seed, rates)
		s := ""
		for i := 0; i < 200; i++ {
			switch i % 4 {
			case 0:
				if inj.Drop() {
					s += "L"
					if inj.LossIsResponse() {
						s += "r"
					}
				}
			case 1:
				if inj.Duplicate() {
					s += "D"
				}
			case 2:
				if inj.ServFail() {
					s += "S"
				}
			case 3:
				if d := inj.Delay(); d > 0 {
					s += "d"
				}
			}
		}
		return s, inj.Counters()
	}
	s1, c1 := run(42)
	s2, c2 := run(42)
	if s1 != s2 {
		t.Errorf("decision stream diverged:\n%q\n%q", s1, s2)
	}
	if c1 != c2 {
		t.Errorf("counters diverged: %s vs %s", c1, c2)
	}
	if c1.Lost == 0 || c1.Duplicated == 0 || c1.ServFails == 0 || c1.Delayed == 0 {
		t.Errorf("faults never fired: %s", c1)
	}
	if s3, _ := run(43); s3 == s1 {
		t.Error("different seed produced identical stream")
	}
}

func TestInjectorBlackoutWindows(t *testing.T) {
	inj := New(1, Rates{Blackouts: []sim.Window{{Start: 10 * sim.Second, End: 20 * sim.Second}}})
	for _, tc := range []struct {
		at   sim.Time
		want bool
	}{
		{0, false}, {10 * sim.Second, true}, {19*sim.Second + 999, true},
		{20 * sim.Second, false}, {sim.Minute, false},
	} {
		if got := inj.Blackout(tc.at); got != tc.want {
			t.Errorf("Blackout(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if c := inj.Counters(); c.Blackholed != 2 {
		t.Errorf("blackholed = %d, want 2", c.Blackholed)
	}
}

// recordingUpstream counts resolves and answers NX for everything — a
// minimal stand-in for the simulator's border.
type recordingUpstream struct {
	resolves  int
	lastT     sim.Time
	lastQuery string
	lastID    symtab.ID
}

func (u *recordingUpstream) Resolve(now sim.Time, forwarder, domain string, id symtab.ID) dnssim.Answer {
	u.resolves++
	u.lastT = now
	u.lastQuery = domain
	u.lastID = id
	return dnssim.Answer{NX: true}
}

func TestFaultyUpstreamPassThrough(t *testing.T) {
	inner := &recordingUpstream{}
	if u := NewFaultyUpstream(inner, nil); u != dnssim.Upstream(inner) {
		t.Error("nil injector should return inner unchanged")
	}
	if u := NewFaultyUpstream(inner, New(1, Rates{})); u != dnssim.Upstream(inner) {
		t.Error("zero rates should return inner unchanged")
	}
}

// TestFaultyUpstreamLossSemantics: with loss=1 every resolve fails, and the
// 50/50 response-loss coin means the inner upstream records roughly half
// the queries — deterministically for a fixed seed.
func TestFaultyUpstreamLossSemantics(t *testing.T) {
	run := func(seed uint64) (int, Counters) {
		inner := &recordingUpstream{}
		inj := New(seed, Rates{Loss: 1})
		u := NewFaultyUpstream(inner, inj)
		for i := 0; i < 100; i++ {
			if ans := u.Resolve(sim.Time(i), "local0", "x.example", 1); !ans.ServFail {
				t.Fatal("loss=1 must ServFail every resolve")
			}
		}
		return inner.resolves, inj.Counters()
	}
	n1, c1 := run(7)
	if c1.Lost != 100 {
		t.Errorf("lost = %d, want 100", c1.Lost)
	}
	if n1 == 0 || n1 == 100 {
		t.Errorf("inner resolves = %d, want strictly between 0 and 100 (response-loss coin)", n1)
	}
	n2, c2 := run(7)
	if n1 != n2 || c1 != c2 {
		t.Errorf("replay diverged: %d/%s vs %d/%s", n1, c1, n2, c2)
	}
}

func TestFaultyUpstreamServFailRecords(t *testing.T) {
	inner := &recordingUpstream{}
	u := NewFaultyUpstream(inner, New(1, Rates{ServFail: 1}))
	if ans := u.Resolve(5, "local0", "y.example", 1); !ans.ServFail {
		t.Error("servfail=1 must ServFail")
	}
	// Unlike loss-of-query, an injected SERVFAIL means the border saw the
	// lookup: the observation exists even though resolution failed.
	if inner.resolves != 1 {
		t.Errorf("inner resolves = %d, want 1", inner.resolves)
	}
}

func TestFaultyUpstreamBlackout(t *testing.T) {
	inner := &recordingUpstream{}
	u := NewFaultyUpstream(inner, New(1, Rates{Blackouts: []sim.Window{{Start: 0, End: sim.Minute}}}))
	if ans := u.Resolve(30*sim.Second, "local0", "z.example", 1); !ans.ServFail {
		t.Error("blackout must ServFail")
	}
	if inner.resolves != 0 {
		t.Error("blackout must record nothing at the vantage point")
	}
	if ans := u.Resolve(2*sim.Minute, "local0", "z.example", 1); ans.ServFail {
		t.Error("after the window the upstream must answer")
	}
}

func TestFaultyUpstreamDelayAndDuplicate(t *testing.T) {
	inner := &recordingUpstream{}
	inj := New(3, Rates{Delay: sim.Second, Duplicate: 1})
	u := NewFaultyUpstream(inner, inj)
	ans := u.Resolve(1000, "local0", "d.example", 7)
	if ans.ServFail || !ans.NX {
		t.Errorf("answer = %+v", ans)
	}
	if inner.lastQuery != "d.example" || inner.lastID != 7 {
		t.Errorf("inner saw (%q, %d), want the pair (d.example, 7) passed through", inner.lastQuery, inner.lastID)
	}
	if inner.resolves != 2 {
		t.Errorf("duplicate=1: inner resolves = %d, want 2", inner.resolves)
	}
	if inner.lastT < 1000 || inner.lastT > 1000+sim.Second {
		t.Errorf("observed timestamp %d outside [1000, %d]", inner.lastT, 1000+sim.Second)
	}
}

// loopbackPair opens two loopback UDP sockets and returns them with the
// receiver's address.
func loopbackPair(t *testing.T) (recv, send *net.UDPConn, to netip.AddrPort) {
	t.Helper()
	var conns [2]*net.UDPConn
	for i := range conns {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Skipf("loopback UDP unavailable: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		conns[i] = c
	}
	return conns[0], conns[1], conns[0].LocalAddr().(*net.UDPAddr).AddrPort()
}

// TestPacketConnLoopback exercises the wire-level wrapper: with loss=1 on
// the receiver every datagram is swallowed; with zero rates the wrapper is
// elided entirely.
func TestPacketConnLoopback(t *testing.T) {
	if c := WrapPacketConn(nil, nil); c != nil {
		t.Error("nil injector should return conn unchanged")
	}
	recv, send, to := loopbackPair(t)

	// Outbound loss: the write claims success but nothing arrives.
	lossy := WrapPacketConn(send, New(1, Rates{Loss: 1}))
	if n, err := lossy.WriteToUDPAddrPort([]byte("doomed"), to); err != nil || n != 6 {
		t.Fatalf("WriteToUDPAddrPort = %d, %v (loss must be invisible to the sender)", n, err)
	}
	recv.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 64)
	if n, _, err := recv.ReadFromUDPAddrPort(buf); err == nil {
		t.Fatalf("swallowed datagram arrived: %q", buf[:n])
	}

	// Duplication: one write, two arrivals.
	dup := WrapPacketConn(send, New(1, Rates{Duplicate: 1}))
	if _, err := dup.WriteToUDPAddrPort([]byte("twice"), to); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		recv.SetReadDeadline(time.Now().Add(time.Second))
		n, _, err := recv.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("copy %d never arrived: %v", i+1, err)
		}
		if string(buf[:n]) != "twice" {
			t.Errorf("copy %d = %q", i+1, buf[:n])
		}
	}

	// Inbound loss: the reader's wrapper swallows the datagram and keeps
	// reading until the deadline.
	deaf := WrapPacketConn(recv, New(1, Rates{Loss: 1}))
	if _, err := send.WriteToUDPAddrPort([]byte("unheard"), to); err != nil {
		t.Fatal(err)
	}
	recv.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, _, err := deaf.ReadFromUDPAddrPort(buf); err == nil {
		t.Fatalf("dropped inbound datagram surfaced: %q", buf[:n])
	}
}

// TestPacketConnZeroAllocs: a wrapped socket's write and read allocate
// nothing, a duplicated write included, so -chaos serves on the same
// allocation-free calls as the unwrapped socket.
func TestPacketConnZeroAllocs(t *testing.T) {
	recv, send, to := loopbackPair(t)
	rates := Rates{Duplicate: 0.5}
	dups := New(7, rates)
	out, in := WrapPacketConn(send, dups), WrapPacketConn(recv, New(8, rates))
	payload, buf := []byte("datagram"), make([]byte, 64)
	// A duplicate's second copy is read before the next write, so every
	// read finds a datagram waiting and the socket buffer never fills.
	var drained uint64
	allocs := testing.AllocsPerRun(200, func() {
		for ; drained < dups.Counters().Duplicated; drained++ {
			if _, _, err := in.ReadFromUDPAddrPort(buf); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := out.WriteToUDPAddrPort(payload, to); err != nil {
			t.Fatal(err)
		}
		if _, _, err := in.ReadFromUDPAddrPort(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a wrapped write and read allocate %.2f times, want 0", allocs)
	}
	if drained == 0 {
		t.Fatal("no write was duplicated")
	}
}

// TestPacketConnDelaySleeps verifies injected latency goes through the
// sleep seam rather than blocking the test for real.
func TestPacketConnDelaySleeps(t *testing.T) {
	var slept sim.Time
	orig := sleep
	sleep = func(d sim.Time) { slept += d }
	defer func() { sleep = orig }()
	_, send, to := loopbackPair(t)

	slow := WrapPacketConn(send, New(9, Rates{Delay: sim.Hour}))
	for i := 0; i < 8 && slept == 0; i++ {
		if _, err := slow.WriteToUDPAddrPort([]byte("late"), to); err != nil {
			t.Fatal(err)
		}
	}
	if slept == 0 {
		t.Error("delay never drew nonzero latency in 8 datagrams")
	}
	if slept > 8*sim.Hour {
		t.Errorf("slept %v, exceeds the configured maximum", slept)
	}
}

// TestWrapPacketConnsSeeds: socket 0 of a group draws the stream a lone
// wrapped socket with the same seed draws, every other socket a different
// one, and disabled rates wrap nothing.
func TestWrapPacketConnsSeeds(t *testing.T) {
	rates := Rates{Loss: 0.3, ServFail: 0.2}
	draw := func(inj *Injector) string {
		s := ""
		for i := 0; i < 200; i++ {
			if inj.Drop() {
				s += "L"
			}
			if inj.ServFail() {
				s += "S"
			}
			s += "."
		}
		return s
	}
	conns := make([]netx.Conn, 3)
	wrapped := WrapPacketConns(conns, 42, rates, nil)
	alone := draw(New(42, rates))
	seen := map[string]int{}
	for i, c := range wrapped {
		s := draw(c.(*PacketConn).Injector())
		if (s == alone) != (i == 0) {
			t.Errorf("socket %d: matches the lone seed-42 stream = %v", i, s == alone)
		}
		if j, dup := seen[s]; dup {
			t.Errorf("sockets %d and %d draw the same stream", j, i)
		}
		seen[s] = i
	}
	if same := WrapPacketConns(conns, 42, Rates{}, nil); len(same) != len(conns) || same[0] != conns[0] {
		t.Error("disabled rates wrapped the sockets")
	}
}
