package faults

import (
	"botmeter/internal/dnssim"
	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// FaultyUpstream decorates a dnssim.Upstream with injected faults — the
// simulated analogue of a degraded local→border link. Fault semantics map
// onto the simulator's request/response model:
//
//   - Blackout: the upstream is unreachable; the resolve fails (ServFail)
//     and the vantage point records nothing.
//   - Loss: a deterministic coin decides whether the query (nothing
//     recorded) or the response (recorded, but the downstream still times
//     out) was lost; either way the resolve fails.
//   - ServFail: the upstream answers SERVFAIL after recording the lookup.
//   - Delay: the observed timestamp is shifted by the injected latency,
//     modelling reordering/late arrival at the vantage point.
//   - Duplicate: the vantage point records the lookup twice.
//
// Wrap a network's border with NewFaultyUpstream via
// dnssim.NetworkConfig.WrapUpstream.
type FaultyUpstream struct {
	inner dnssim.Upstream
	inj   *Injector
}

// NewFaultyUpstream wraps inner with the injector's faults. A nil injector
// or all-zero rates returns inner unchanged.
func NewFaultyUpstream(inner dnssim.Upstream, inj *Injector) dnssim.Upstream {
	if inj == nil || !inj.rates.Enabled() {
		return inner
	}
	return &FaultyUpstream{inner: inner, inj: inj}
}

// Injector exposes the wrapped injector (for counters).
func (f *FaultyUpstream) Injector() *Injector { return f.inj }

// Resolve implements dnssim.Upstream; the (domain, id) pair passes through
// to inner untouched.
func (f *FaultyUpstream) Resolve(now sim.Time, forwarder, domain string, id symtab.ID) dnssim.Answer {
	if f.inj.Blackout(now) {
		return dnssim.Answer{ServFail: true}
	}
	if f.inj.Drop() {
		if f.inj.LossIsResponse() {
			// Query reached the border (recorded) but the answer was lost:
			// the downstream server times out all the same.
			f.inner.Resolve(now, forwarder, domain, id)
		}
		return dnssim.Answer{ServFail: true}
	}
	if f.inj.ServFail() {
		// The upstream processed (and its vantage point recorded) the
		// query but failed to resolve it.
		f.inner.Resolve(now, forwarder, domain, id)
		return dnssim.Answer{ServFail: true}
	}
	at := now + f.inj.Delay()
	ans := f.inner.Resolve(at, forwarder, domain, id)
	if f.inj.Duplicate() {
		f.inner.Resolve(at, forwarder, domain, id)
	}
	f.inj.countPassed()
	return ans
}
