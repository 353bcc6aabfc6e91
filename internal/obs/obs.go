// Package obs is the stdlib-only observability layer shared by the
// simulator, the live UDP daemons (cmd/resolver, cmd/vantage) and the
// analysis pipeline (cmd/botmeter, cmd/benchgen). It provides:
//
//   - a lock-cheap metrics Registry — Counters and Gauges, each an atomic
//     value or a callback over a tally its owner keeps, and fixed-bucket
//     Histograms — exposed in Prometheus text format (WritePrometheus) and
//     over HTTP (NewMux);
//   - the daemons' structured logger (NewLogger): log/slog in logfmt or
//     JSON with a fixed field schema;
//   - span-style query-lifecycle tracing (Tracer/Span): a sampled lookup is
//     followed from client through cache (hit/miss/stale) to the upstream
//     (attempts, retries, injected faults), and completed spans land in a
//     bounded ring buffer dumpable as JSONL (/debug/spans);
//   - coarse per-stage wall/alloc timers (StageSet) behind botmeter
//     -verbose and benchgen -timings.
//
// Every handle is nil-safe: a nil *Registry hands out nil instruments, and
// nil *Counter/*Gauge/*Histogram/*Tracer/*Span/*StageSet methods
// are single-branch no-ops. Instrumented hot paths therefore pay only a
// predictable nil check when observability is disabled — the overhead is
// bounded by BenchmarkObs* in bench_test.go and the dnssim benchmarks.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry holds named metrics. The registry itself is mutex-protected (it
// is touched only at instrument-creation and exposition time); the
// instruments it hands out are atomic and safe for concurrent use on hot
// paths. A nil *Registry is a valid, disabled registry: every lookup
// returns a nil instrument whose methods no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string // metric family name → HELP text
}

// NewRegistry builds an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Help attaches a HELP string to a metric family name. No-op on nil.
func (r *Registry) Help(name, text string) *Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
	return r
}

// metricKey renders the identity of one series: family name plus a
// canonical (sorted) label block.
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + renderLabels(labels)
}

// renderLabels renders alternating key/value pairs as a Prometheus label
// block with keys sorted for a canonical identity. An odd trailing key is
// paired with an empty value rather than dropped, so the mistake is
// visible in the exposition.
func renderLabels(kv []string) string {
	type pair struct{ k, v string }
	pairs := make([]pair, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		p := pair{k: kv[i]}
		if i+1 < len(kv) {
			p.v = kv[i+1]
		}
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Counter returns (creating on first use) the counter for name plus
// alternating label key/value pairs. Nil registry → nil counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.counter(name, nil, labels)
}

// CounterFunc registers a callback counter: fn is evaluated at exposition
// time, so a count its owner already keeps, under the lock that guards it,
// is exported without a second tally beside it. fn runs outside the
// registry lock, must be safe for concurrent calls and must never decrease.
// Registration is first-wins: a name+labels key already held by a callback
// counter returns that counter, and one held by a plain counter is refused
// (nil). Nil registry or nil fn is a no-op.
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...string) *Counter {
	if fn == nil {
		return nil
	}
	return r.counter(name, fn, labels)
}

func (r *Registry) counter(name string, fn func() uint64, labels []string) *Counter {
	if r == nil {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		if fn != nil && c.fn == nil {
			return nil
		}
		return c
	}
	c := &Counter{fn: fn, name: name, labels: append([]string(nil), labels...)}
	r.counters[key] = c
	return c
}

// Gauge returns (creating on first use) the gauge for name plus labels.
// Nil registry → nil gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.gauge(name, nil, labels)
}

// GaugeFunc registers a callback gauge: fn is evaluated at exposition
// time, so values that age between samples — watermark lag vs. wall clock,
// checkpoint age — are always fresh at scrape instead of as stale as the
// last Set, and a level its owner already keeps needs no copy. fn runs
// outside the registry lock and must be safe for concurrent calls.
// Registration is first-wins as for CounterFunc: a callback gauge already
// under the key is returned, a plain one refuses (nil). Nil registry or nil
// fn is a no-op.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) *Gauge {
	if fn == nil {
		return nil
	}
	return r.gauge(name, fn, labels)
}

func (r *Registry) gauge(name string, fn func() float64, labels []string) *Gauge {
	if r == nil {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		if fn != nil && g.fn == nil {
			return nil
		}
		return g
	}
	g := &Gauge{fn: fn, name: name, labels: append([]string(nil), labels...)}
	r.gauges[key] = g
	return g
}

// Histogram returns (creating on first use) the histogram for name plus
// labels, with the given upper bucket bounds (strictly increasing; a +Inf
// bucket is implicit). Bounds are fixed at first creation; later calls with
// different bounds return the existing histogram. Nil registry → nil
// histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[key]; ok {
		return h
	}
	h := newHistogram(name, bounds, labels)
	r.histograms[key] = h
	return h
}

// CounterValue reports the current value of the named counter series —
// plain or callback — (0 when absent): a test and health-check convenience,
// not a hot-path API. A callback is evaluated outside the registry lock.
func (r *Registry) CounterValue(name string, labels ...string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[metricKey(name, labels)]
	r.mu.Unlock()
	return c.Value()
}

// GaugeValue reports the current value of the named gauge series — plain
// or callback — (0 when absent). A callback is evaluated outside the
// registry lock.
func (r *Registry) GaugeValue(name string, labels ...string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	g := r.gauges[metricKey(name, labels)]
	r.mu.Unlock()
	return g.Value()
}

// snapshot returns the instruments sorted by (family, label block) for
// deterministic exposition. Callbacks are not evaluated here: the caller
// reads every value outside the registry lock.
func (r *Registry) snapshot() (counters []*Counter, gauges []*Gauge, histograms []*Histogram, help map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	for _, h := range r.histograms {
		histograms = append(histograms, h)
	}
	help = make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	sort.Slice(counters, func(i, j int) bool { return counters[i].sortKey() < counters[j].sortKey() })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].sortKey() < gauges[j].sortKey() })
	sort.Slice(histograms, func(i, j int) bool { return histograms[i].sortKey() < histograms[j].sortKey() })
	return counters, gauges, histograms, help
}

// seriesName renders "name{labels}" for exposition.
func seriesName(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + renderLabels(labels)
}

// seriesNameExtra renders "name{labels,extraK="extraV"}" — used for
// histogram le buckets.
func seriesNameExtra(name string, labels []string, extraK, extraV string) string {
	kv := make([]string, 0, len(labels)+2)
	kv = append(kv, labels...)
	kv = append(kv, extraK, extraV)
	return name + renderLabels(kv)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(f float64) string {
	if f == float64(int64(f)) && f < 1e15 && f > -1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}
