package faults

import (
	"net/netip"
	"time"

	"botmeter/internal/netx"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
)

// PacketConn wraps a netx.Conn with injected faults on the live UDP path —
// the wire-level counterpart of FaultyUpstream, shared by cmd/resolver and
// cmd/vantage behind their -chaos flags. The faults sit in the same two
// netip.AddrPort calls the unwrapped socket serves, so -chaos runs the
// daemons' one serve loop and adds no allocation to it. Rates apply per
// datagram per direction:
//
//   - Blackout (relative to Injector creation): both directions swallowed.
//   - Loss: inbound datagrams are silently re-read; outbound datagrams are
//     reported written but never sent.
//   - Duplicate: outbound datagrams are sent twice.
//   - Delay: outbound datagrams sleep before sending (serialised on the
//     caller, which also reorders relative to other sockets).
//
// SERVFAIL injection is an application-layer fault and is handled by the
// daemons themselves (they consult the same Injector), not by the socket.
type PacketConn struct {
	netx.Conn
	inj *Injector
}

// WrapPacketConn decorates c with the injector's faults. A nil injector or
// all-zero rates returns c unchanged.
func WrapPacketConn(c netx.Conn, inj *Injector) netx.Conn {
	if inj == nil || !inj.rates.Enabled() {
		return c
	}
	return &PacketConn{Conn: c, inj: inj}
}

// WrapPacketConns gives each socket of a listener group its own Injector, so
// every socket's worker draws from a private decision stream and a replay
// stays deterministic per socket however the kernel spreads the flows.
// Socket 0 is seeded with seed itself — a single socket replays exactly what
// WrapPacketConn(c, New(seed, rates)) does — and socket i with seed advanced
// by i golden-ratio strides. reg, when non-nil, exports the group's tallies:
// each series sums the injectors' Counters at scrape time. Disabled rates
// return conns unchanged.
func WrapPacketConns(conns []netx.Conn, seed uint64, rates Rates, reg *obs.Registry) []netx.Conn {
	if !rates.Enabled() {
		return conns
	}
	wrapped := make([]netx.Conn, len(conns))
	injs := make([]*Injector, len(conns))
	for i, c := range conns {
		injs[i] = New(seed+uint64(i)*0x9e3779b97f4a7c15, rates)
		wrapped[i] = WrapPacketConn(c, injs[i])
	}
	reg.Help(MetricInjected, "Injected fault events, by kind.")
	reg.Help(MetricPassed, "Datagrams that traversed the injector unharmed.")
	sum := func(get func(Counters) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, inj := range injs {
				n += get(inj.Counters())
			}
			return n
		}
	}
	reg.CounterFunc(MetricPassed, sum(func(c Counters) uint64 { return c.Passed }))
	reg.CounterFunc(MetricInjected, sum(func(c Counters) uint64 { return c.Lost }), "kind", "loss")
	reg.CounterFunc(MetricInjected, sum(func(c Counters) uint64 { return c.Duplicated }), "kind", "duplicate")
	reg.CounterFunc(MetricInjected, sum(func(c Counters) uint64 { return c.ServFails }), "kind", "servfail")
	reg.CounterFunc(MetricInjected, sum(func(c Counters) uint64 { return c.Delayed }), "kind", "delay")
	reg.CounterFunc(MetricInjected, sum(func(c Counters) uint64 { return c.Blackholed }), "kind", "blackout")
	return wrapped
}

// Injector exposes the wrapped injector (for counters and the daemons'
// application-level SERVFAIL draw).
func (p *PacketConn) Injector() *Injector { return p.inj }

// ReadFromUDPAddrPort reads the next surviving datagram.
func (p *PacketConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	for {
		n, addr, err := p.Conn.ReadFromUDPAddrPort(b)
		if err != nil {
			return n, addr, err
		}
		if p.inj.BlackoutNow() || p.inj.Drop() {
			continue // swallowed in transit
		}
		p.inj.countPassed()
		return n, addr, nil
	}
}

// WriteToUDPAddrPort sends b unless the injector swallows it; duplication
// sends it twice and delay sleeps first.
func (p *PacketConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	if p.inj.BlackoutNow() || p.inj.Drop() {
		return len(b), nil // lost in transit, invisible to the sender
	}
	if d := p.inj.Delay(); d > 0 {
		sleep(d)
	}
	n, err := p.Conn.WriteToUDPAddrPort(b, addr)
	if err != nil {
		return n, err
	}
	if p.inj.Duplicate() {
		if _, err := p.Conn.WriteToUDPAddrPort(b, addr); err != nil {
			return n, err
		}
	}
	p.inj.countPassed()
	return n, err
}

// sleep is a test seam for the injected latency.
var sleep = func(d sim.Time) { time.Sleep(d.Duration()) }
