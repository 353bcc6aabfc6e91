package main

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"botmeter/internal/dnswire"
	"botmeter/internal/sim"
)

// scriptedUpstream answers each query according to a script keyed by the
// 1-based arrival count, letting tests simulate drops, mismatched
// datagrams and SERVFAIL bursts precisely.
type scriptedUpstream struct {
	conn     net.PacketConn
	received atomic.Int64
}

// startScriptedUpstream serves UDP; for every query it calls script with
// the arrival count and sends back each returned datagram (none = drop).
func startScriptedUpstream(t *testing.T, script func(q *dnswire.Message, count int) [][]byte) *scriptedUpstream {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	u := &scriptedUpstream{conn: conn}
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
			count := int(u.received.Add(1))
			for _, resp := range script(msg, count) {
				conn.WriteTo(resp, addr)
			}
		}
	}()
	t.Cleanup(func() { conn.Close() })
	return u
}

func encode(t *testing.T, m *dnswire.Message) []byte {
	t.Helper()
	wire, err := m.Encode()
	if err != nil {
		t.Error(err)
	}
	return wire
}

func positiveResponse(t *testing.T, q *dnswire.Message) []byte {
	t.Helper()
	return encode(t, dnswire.NewResponse(q, net.ParseIP("192.0.2.77"), 60))
}

// TestRetriesRecover drops the first attempt; the retransmission must
// succeed without any client-visible failure, under an ID of its own.
func TestRetriesRecover(t *testing.T) {
	var ids [2]atomic.Uint32
	up := startScriptedUpstream(t, func(q *dnswire.Message, count int) [][]byte {
		if count <= len(ids) {
			ids[count-1].Store(uint32(q.Header.ID) + 1)
		}
		if count == 1 {
			return nil // first attempt lost
		}
		return [][]byte{positiveResponse(t, q)}
	})
	cfg := testConfig(up.conn.LocalAddr().String())
	cfg.timeout, cfg.retries, cfg.backoff = 150*time.Millisecond, 2, 5*time.Millisecond
	f, addr := startResolver(t, cfg, 1)
	m := exchange(t, dial(t, addr), 7, "retry.example.com")
	if m.Header.Rcode != dnswire.RcodeNoError || len(m.Answers) != 1 {
		t.Fatalf("recovered answer = %+v", m)
	}
	if c := f.counters(); c.retried != 1 || c.servfails != 0 || c.forwarded != 1 {
		t.Errorf("counters = %s, want 1 retry, 1 forwarded, no servfail", c)
	}
	if a, b := ids[0].Load(), ids[1].Load(); a == 0 || b == 0 || a == b {
		t.Errorf("upstream IDs of the two attempts = %d, %d; each attempt draws its own", a-1, b-1)
	}
}

// TestValidatesResponses sends one bad datagram ahead of the real answer:
// it must be rejected (counted, not cached, not relayed) and the true answer
// must still win within the same attempt.
func TestValidatesResponses(t *testing.T) {
	spoof := net.ParseIP("203.0.113.66")
	cases := []struct {
		name string
		bad  func(q *dnswire.Message) []byte
	}{
		{"wrong ID", func(q *dnswire.Message) []byte {
			return encode(t, dnswire.NewResponse(dnswire.NewQuery(q.Header.ID+1, q.Questions[0].Name), spoof, 60))
		}},
		{"wrong name", func(q *dnswire.Message) []byte {
			return encode(t, dnswire.NewResponse(dnswire.NewQuery(q.Header.ID, "not-what-you-asked.example"), spoof, 60))
		}},
		{"wrong type", func(q *dnswire.Message) []byte {
			other := dnswire.NewQuery(q.Header.ID, q.Questions[0].Name)
			other.Questions[0].Type = dnswire.TypeTXT
			return encode(t, dnswire.NewResponse(other, spoof, 60))
		}},
		{"wrong class", func(q *dnswire.Message) []byte {
			other := dnswire.NewQuery(q.Header.ID, q.Questions[0].Name)
			other.Questions[0].Class = 3 // CHAOS
			return encode(t, dnswire.NewResponse(other, spoof, 60))
		}},
		{"QR clear", func(q *dnswire.Message) []byte {
			r := dnswire.NewResponse(q, spoof, 60)
			r.Header.QR = false
			return encode(t, r)
		}},
		{"truncated", func(q *dnswire.Message) []byte {
			wire := encode(t, dnswire.NewResponse(q, spoof, 60))
			return wire[:len(wire)-3]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			up := startScriptedUpstream(t, func(q *dnswire.Message, count int) [][]byte {
				return [][]byte{tc.bad(q), positiveResponse(t, q)}
			})
			f, addr := startResolver(t, testConfig(up.conn.LocalAddr().String()), 1)
			m := exchange(t, dial(t, addr), 42, "target.example.com")
			if m.Header.Rcode != dnswire.RcodeNoError || len(m.Answers) != 1 {
				t.Fatalf("validated answer = %+v", m)
			}
			if !net.IP(m.Answers[0].Data).Equal(net.ParseIP("192.0.2.77")) {
				t.Errorf("answer IP = %v (the spoof was relayed)", net.IP(m.Answers[0].Data))
			}
			if c := f.counters(); c.mismatched != 1 || c.forwarded != 1 {
				t.Errorf("counters = %s, want 1 mismatched and 1 forwarded", c)
			}
			if n := up.received.Load(); n != 1 {
				t.Errorf("upstream saw %d queries, want 1 (the bad datagram must not fail the attempt)", n)
			}
		})
	}
}

// TestLateAnswerMismatches: the answer to an attempt that timed out arrives
// during the next attempt. It carries a retired ID, so it is counted and
// dropped; the live attempt's own answer is the one relayed.
func TestLateAnswerMismatches(t *testing.T) {
	var first atomic.Pointer[dnswire.Message]
	up := startScriptedUpstream(t, func(q *dnswire.Message, count int) [][]byte {
		if count == 1 {
			first.Store(q)
			return nil
		}
		late := dnswire.NewResponse(first.Load(), net.ParseIP("203.0.113.66"), 60)
		return [][]byte{encode(t, late), positiveResponse(t, q)}
	})
	cfg := testConfig(up.conn.LocalAddr().String())
	cfg.timeout, cfg.retries, cfg.backoff = 100*time.Millisecond, 1, 5*time.Millisecond
	f, addr := startResolver(t, cfg, 1)
	m := exchange(t, dial(t, addr), 8, "late.example.com")
	if len(m.Answers) != 1 || !net.IP(m.Answers[0].Data).Equal(net.ParseIP("192.0.2.77")) {
		t.Fatalf("answer = %+v, want the live attempt's", m)
	}
	if c := f.counters(); c.mismatched != 1 || c.retried != 1 {
		t.Errorf("counters = %s, want the late answer mismatched after 1 retry", c)
	}
}

// TestRetriesUpstreamServfail treats an upstream SERVFAIL as a failed
// attempt: it must be retried, never cached, and the eventual positive
// answer relayed.
func TestRetriesUpstreamServfail(t *testing.T) {
	up := startScriptedUpstream(t, func(q *dnswire.Message, count int) [][]byte {
		if count == 1 {
			return [][]byte{encode(t, &dnswire.Message{
				Header:    dnswire.Header{ID: q.Header.ID, QR: true, Rcode: dnswire.RcodeServFail},
				Questions: q.Questions,
			})}
		}
		return [][]byte{positiveResponse(t, q)}
	})
	cfg := testConfig(up.conn.LocalAddr().String())
	cfg.retries, cfg.backoff = 1, 5*time.Millisecond
	_, addr := startResolver(t, cfg, 1)
	client := dial(t, addr)
	m := exchange(t, client, 9, "burst.example.com")
	if m.Header.Rcode != dnswire.RcodeNoError || len(m.Answers) != 1 {
		t.Fatalf("post-SERVFAIL answer = %+v", m)
	}
	// A fresh query must hit the cache (the SERVFAIL was not cached, the
	// positive was).
	before := up.received.Load()
	m = exchange(t, client, 10, "burst.example.com")
	if m.Header.Rcode != dnswire.RcodeNoError {
		t.Fatalf("cached answer = %+v", m)
	}
	if up.received.Load() != before {
		t.Error("cached positive leaked upstream (SERVFAIL cached instead?)")
	}
}

// TestServeStale primes the cache, lets the entry expire, kills the
// upstream, and expects the expired answer served with the stale TTL
// instead of SERVFAIL — RFC 8767 graceful degradation — and /healthz to
// degrade once a streak of exchanges has failed.
func TestServeStale(t *testing.T) {
	up := startScriptedUpstream(t, func(q *dnswire.Message, count int) [][]byte {
		return [][]byte{positiveResponse(t, q)}
	})
	cfg := testConfig(up.conn.LocalAddr().String())
	cfg.timeout, cfg.deadline = 100*time.Millisecond, 200*time.Millisecond
	cfg.posTTL, cfg.negTTL = sim.FromDuration(50*time.Millisecond), sim.FromDuration(50*time.Millisecond)
	cfg.serveStale = sim.Hour
	f, addr := startResolver(t, cfg, 1)
	client := dial(t, addr)
	if m := exchange(t, client, 11, "c2.example.net"); m.Header.Rcode != dnswire.RcodeNoError {
		t.Fatalf("priming answer = %+v", m)
	}
	up.conn.Close()                   // upstream goes dark
	time.Sleep(80 * time.Millisecond) // let the cache entry expire
	m := exchange(t, client, 12, "c2.example.net")
	if m.Header.Rcode != dnswire.RcodeNoError || len(m.Answers) != 1 {
		t.Fatalf("stale answer = %+v", m)
	}
	if ttl := m.Answers[0].TTL; ttl != staleAnswerTTL {
		t.Errorf("stale TTL = %d, want %d", ttl, staleAnswerTTL)
	}
	if c := f.counters(); c.staleServed != 1 || c.servfails != 0 {
		t.Errorf("counters = %s, want staleServed=1 servfails=0", c)
	}
	if err := f.health(); err != nil {
		t.Errorf("one failed exchange degraded /healthz: %v", err)
	}

	// A name never cached has nothing stale to fall back on.
	if m := exchange(t, client, 13, "gone.example.net"); m.Header.Rcode != dnswire.RcodeServFail {
		t.Errorf("uncached name: rcode = %d, want SERVFAIL", m.Header.Rcode)
	}
	exchange(t, client, 14, "gone-too.example.net")
	if err := f.health(); err == nil {
		t.Errorf("/healthz still fine after %d consecutive failed exchanges", unhealthyFailStreak)
	}

	// With serve-stale disabled the same situation must SERVFAIL.
	cfg.serveStale = 0
	f2, addr2 := startResolver(t, cfg, 1)
	if m := exchange(t, dial(t, addr2), 15, "c2.example.net"); m.Header.Rcode != dnswire.RcodeServFail {
		t.Errorf("without serve-stale: rcode = %d, want SERVFAIL", m.Header.Rcode)
	}
	if c := f2.counters(); c.staleServed != 0 || c.servfails != 1 {
		t.Errorf("without serve-stale: counters = %s", c)
	}
}
