package main

import (
	"net"
	"sync"
	"testing"
	"time"

	"botmeter/internal/dga"
	"botmeter/internal/dnswire"
	"botmeter/internal/estimators"
	"botmeter/internal/matcher"
	"botmeter/internal/sim"
	"botmeter/internal/stats"
	"botmeter/internal/trace"
)

// borderStub is an in-test vantage point: answers registered domains,
// NXDOMAIN otherwise, and records every query as an observation.
type borderStub struct {
	conn       net.PacketConn
	registered map[string]bool

	mu       sync.Mutex
	observed trace.Observed
}

func startBorderStub(t *testing.T, registered []string) *borderStub {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	s := &borderStub{conn: conn, registered: make(map[string]bool, len(registered))}
	for _, d := range registered {
		s.registered[d] = true
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
			s.mu.Lock()
			s.observed = append(s.observed, trace.ObservedRecord{
				T:      sim.Time(time.Now().UnixMilli()),
				Server: "live-local",
				Domain: name,
			})
			s.mu.Unlock()
			var ip net.IP
			if s.registered[name] {
				ip = net.ParseIP("192.0.2.88")
			}
			if resp, err := dnswire.NewResponse(msg, ip, 60).Encode(); err == nil {
				conn.WriteTo(resp, addr)
			}
		}
	}()
	t.Cleanup(func() { conn.Close() })
	return s
}

// TestLiveRunEndToEnd sends real UDP DNS traffic from a simulated AR
// botnet and checks that the Bernoulli estimator recovers the population
// from the live observations — the paper's pipeline over actual sockets.
func TestLiveRunEndToEnd(t *testing.T) {
	spec := dga.Spec{
		Name:          "live-AR",
		Pool:          dga.DrainReplenish{NX: 495, C2: 5, Gen: dga.DefaultGenerator},
		Barrel:        dga.RandomCut{},
		ThetaQ:        40,
		QueryInterval: sim.Second,
	}
	const (
		seed = uint64(321)
		bots = 16
	)
	epoch := int(time.Now().UnixMilli() / int64(sim.Day))
	pool := spec.Pool.PoolFor(seed, epoch)
	var registered []string
	for _, p := range pool.ValidPositions {
		registered = append(registered, pool.Domains[p])
	}
	stub := startBorderStub(t, registered)

	if err := liveRun(spec, seed, bots, stub.conn.LocalAddr().String(), time.Second); err != nil {
		t.Fatal(err)
	}

	stub.mu.Lock()
	obs := append(trace.Observed{}, stub.observed...)
	stub.mu.Unlock()
	if len(obs) == 0 {
		t.Fatal("no live observations recorded")
	}
	// All queried domains come from today's pool; matching stamps the
	// positions MB estimates from.
	names := matcher.NewAttribution(pool, nil, nil)
	for i := range obs {
		pos, ok := names.Resolve(obs[i])
		if !ok {
			t.Fatalf("live query outside pool: %q", obs[i].Domain)
		}
		obs[i].Pos = pos
	}
	mb := estimators.NewBernoulli()
	got, err := estimators.EstimateEpoch(mb, obs, epoch, estimators.Config{Spec: spec, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if are := stats.ARE(got, bots); are > 0.5 {
		t.Errorf("live MB estimate %v vs %d bots (ARE %.2f)", got, bots, are)
	}
}

func TestRunLiveFlagRejectsBadResolver(t *testing.T) {
	err := run([]string{"-family", "srizbi", "-bots", "1", "-live", "this is not an address"})
	if err == nil {
		t.Error("bad resolver address should fail")
	}
}
