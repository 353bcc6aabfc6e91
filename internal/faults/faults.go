// Package faults is a deterministic fault-injection substrate for both the
// simulated DNS hierarchy (internal/dnssim) and the live UDP pipeline
// (cmd/resolver, cmd/vantage). A seeded Injector makes every per-datagram
// decision — loss, duplication, added latency, SERVFAIL bursts, full
// upstream blackout windows — from a single sim.RNG stream, so a fixed
// (seed, rates, traffic) triple replays bit-for-bit. That is what lets the
// chaos experiments (internal/experiments.ChaosSweep) and the resolver's
// chaos integration test assert byte-identical outcomes across runs: the
// paper's robustness claim (§V, Figure 7 — "resilient against noisy and
// missing observations") is only checkable if the noise itself is
// reproducible.
//
// The same Injector backs two decorators:
//
//   - FaultyUpstream wraps a dnssim.Upstream, degrading the simulated
//     local→border link (virtual time, single-threaded, fully
//     deterministic).
//   - PacketConn wraps a net.PacketConn, degrading a live UDP socket
//     (wall-clock blackout windows measured from Injector creation).
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"botmeter/internal/sim"
)

// Rates configures per-fault-type probabilities and windows. The zero value
// injects nothing.
type Rates struct {
	// Loss is the probability a datagram is dropped in transit. In the
	// simulator a loss manifests as a SERVFAIL-after-timeout at the
	// downstream server; whether the query or the response was the lost
	// half (i.e. whether the vantage point still records the lookup) is a
	// second deterministic coin flip.
	Loss float64
	// Duplicate is the probability a datagram is delivered twice —
	// UDP retransmission glitches and middlebox duplication.
	Duplicate float64
	// ServFail is the probability the upstream answers SERVFAIL despite
	// being reachable (lame delegation, overloaded authoritative).
	ServFail float64
	// Delay is the maximum injected extra latency; each delayed datagram
	// draws uniformly from [0, Delay]. In the simulator this perturbs the
	// observed timestamp (reordering at the vantage point); on a live
	// socket it sleeps before delivery.
	Delay sim.Time
	// Blackouts are windows on the fault clock (virtual time in the
	// simulator, time-since-Injector-creation on live sockets) during
	// which the upstream is entirely unreachable: every datagram is
	// swallowed.
	Blackouts []sim.Window
}

// Enabled reports whether any fault can fire.
func (r Rates) Enabled() bool {
	return r.Loss > 0 || r.Duplicate > 0 || r.ServFail > 0 || r.Delay > 0 || len(r.Blackouts) > 0
}

// String renders the rates in ParseSpec's format.
func (r Rates) String() string {
	var parts []string
	if r.Loss > 0 {
		parts = append(parts, fmt.Sprintf("loss=%g", r.Loss))
	}
	if r.Duplicate > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", r.Duplicate))
	}
	if r.ServFail > 0 {
		parts = append(parts, fmt.Sprintf("servfail=%g", r.ServFail))
	}
	if r.Delay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%s", r.Delay.Duration()))
	}
	for _, w := range r.Blackouts {
		parts = append(parts, fmt.Sprintf("blackout=%s+%s", w.Start.Duration(), (w.End-w.Start).Duration()))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a compact fault specification of the form
//
//	loss=0.2,dup=0.01,servfail=0.05,delay=200ms,blackout=10s+2s
//
// Keys may appear in any order; blackout may repeat (each entry is
// start+duration). An empty spec or "none" yields zero Rates.
func ParseSpec(spec string) (Rates, error) {
	var r Rates
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return r, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Rates{}, fmt.Errorf("faults: bad spec field %q (want key=value)", field)
		}
		switch key {
		case "loss", "dup", "servfail":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !(p >= 0 && p <= 1) { // the negated form also rejects NaN
				return Rates{}, fmt.Errorf("faults: %s=%q is not a probability in [0,1]", key, val)
			}
			switch key {
			case "loss":
				r.Loss = p
			case "dup":
				r.Duplicate = p
			case "servfail":
				r.ServFail = p
			}
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Rates{}, fmt.Errorf("faults: delay=%q is not a duration", val)
			}
			r.Delay = sim.FromDuration(d)
		case "blackout":
			startStr, durStr, ok := strings.Cut(val, "+")
			if !ok {
				return Rates{}, fmt.Errorf("faults: blackout=%q (want start+duration, e.g. 10s+2s)", val)
			}
			start, err := time.ParseDuration(startStr)
			if err != nil || start < 0 {
				return Rates{}, fmt.Errorf("faults: blackout start %q is not a duration", startStr)
			}
			dur, err := time.ParseDuration(durStr)
			if err != nil || dur <= 0 {
				return Rates{}, fmt.Errorf("faults: blackout duration %q is not a positive duration", durStr)
			}
			r.Blackouts = append(r.Blackouts, sim.Window{
				Start: sim.FromDuration(start),
				End:   sim.FromDuration(start + dur),
			})
		default:
			return Rates{}, fmt.Errorf("faults: unknown spec key %q", key)
		}
	}
	return r, nil
}

// Counters tallies injected faults, for observability and for asserting
// deterministic replay in tests.
type Counters struct {
	// Passed counts datagrams that traversed unharmed.
	Passed uint64
	// Lost counts dropped datagrams.
	Lost uint64
	// Duplicated counts duplicated datagrams.
	Duplicated uint64
	// ServFails counts injected SERVFAIL answers.
	ServFails uint64
	// Delayed counts datagrams that drew a nonzero delay.
	Delayed uint64
	// Blackholed counts datagrams swallowed inside a blackout window.
	Blackholed uint64
}

// String renders the counters compactly for logs.
func (c Counters) String() string {
	return fmt.Sprintf("passed=%d lost=%d dup=%d servfail=%d delayed=%d blackholed=%d",
		c.Passed, c.Lost, c.Duplicated, c.ServFails, c.Delayed, c.Blackholed)
}

// Injector makes seeded fault decisions. All methods are safe for
// concurrent use; under concurrency the decision stream is serialised by a
// mutex, so determinism additionally requires that callers present
// datagrams in a deterministic order (true for the single-threaded
// simulator and for sequential request/response tests).
type Injector struct {
	mu      sync.Mutex
	rates   Rates
	rng     *sim.RNG
	seed    uint64
	started time.Time
	c       Counters
}

// Metric families exported by the injectors of one WrapPacketConns call.
// The injected counter is labelled kind=loss|duplicate|servfail|delay|blackout
// so chaos sweeps can correlate fault dose with estimator accuracy.
const (
	MetricInjected = "faults_injected_total"
	MetricPassed   = "faults_passed_total"
)

// New builds an injector whose decision stream is fully determined by seed
// and rates. The wall clock for live blackout windows starts now.
func New(seed uint64, rates Rates) *Injector {
	return &Injector{
		rates:   rates,
		rng:     sim.NewRNG(seed),
		seed:    seed,
		started: time.Now(),
	}
}

// Seed returns the injector's seed.
func (i *Injector) Seed() uint64 { return i.seed }

// Rates returns the configured rates.
func (i *Injector) Rates() Rates { return i.rates }

// Counters returns a snapshot of the fault tally.
func (i *Injector) Counters() Counters {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.c
}

// coin draws one Bernoulli decision. Caller holds i.mu.
func (i *Injector) coin(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		// Still consume a draw so rate changes don't shift unrelated
		// decision streams mid-experiment.
		i.rng.Float64()
		return true
	}
	return i.rng.Float64() < p
}

// Drop decides whether to lose one datagram.
func (i *Injector) Drop() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.coin(i.rates.Loss) {
		i.c.Lost++
		return true
	}
	return false
}

// LossIsResponse decides, for a datagram already declared lost, whether the
// response (rather than the query) was the lost half — i.e. whether the
// upstream still saw and recorded the lookup. Deterministic 50/50.
func (i *Injector) LossIsResponse() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Float64() < 0.5
}

// Duplicate decides whether to deliver one datagram twice.
func (i *Injector) Duplicate() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.coin(i.rates.Duplicate) {
		i.c.Duplicated++
		return true
	}
	return false
}

// ServFail decides whether the upstream answers SERVFAIL.
func (i *Injector) ServFail() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.coin(i.rates.ServFail) {
		i.c.ServFails++
		return true
	}
	return false
}

// Delay draws the extra latency for one datagram (0 when delay injection is
// disabled or the draw lands on zero).
func (i *Injector) Delay() sim.Time {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.rates.Delay <= 0 {
		return 0
	}
	d := sim.Time(i.rng.Int64N(int64(i.rates.Delay) + 1))
	if d > 0 {
		i.c.Delayed++
	}
	return d
}

// Blackout reports whether the fault clock instant at falls inside a
// configured blackout window. Uses no randomness.
func (i *Injector) Blackout(at sim.Time) bool {
	for _, w := range i.rates.Blackouts {
		if w.Contains(at) {
			i.mu.Lock()
			i.c.Blackholed++
			i.mu.Unlock()
			return true
		}
	}
	return false
}

// BlackoutNow maps the wall clock onto the fault clock (time since New) and
// reports whether a blackout window is active.
func (i *Injector) BlackoutNow() bool {
	return i.Blackout(sim.FromDuration(time.Since(i.started)))
}

// countPassed tallies an unharmed datagram.
func (i *Injector) countPassed() {
	i.mu.Lock()
	i.c.Passed++
	i.mu.Unlock()
}
