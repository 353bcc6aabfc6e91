package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. A counter the registry made
// with CounterFunc holds no value of its own: it reads its owner's tally at
// exposition time, and Inc and Add do not show through it. All methods are
// nil-safe no-ops, so disabled instrumentation costs one predictable branch.
type Counter struct {
	v      atomic.Uint64
	fn     func() uint64
	name   string
	labels []string
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count, evaluating a callback counter's
// function (0 for nil).
func (c *Counter) Value() uint64 {
	switch {
	case c == nil:
		return 0
	case c.fn != nil:
		return c.fn()
	}
	return c.v.Load()
}

func (c *Counter) sortKey() string { return seriesName(c.name, c.labels) }

// Gauge is a float64 that can go up and down, stored as atomic bits, or, made
// with GaugeFunc, a function evaluated at exposition time whose value Set and
// Add do not change.
type Gauge struct {
	bits   atomic.Uint64
	fn     func() float64
	name   string
	labels []string
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (CAS loop — gauges are not hot-path instruments).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Value returns the current value, evaluating a callback gauge's function
// (0 for nil).
func (g *Gauge) Value() float64 {
	switch {
	case g == nil:
		return 0
	case g.fn != nil:
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) sortKey() string { return seriesName(g.name, g.labels) }

// Default bucket bounds. LatencyBuckets are seconds (Prometheus
// convention); SizeBuckets are powers of four, suiting both byte sizes and
// cardinalities.
var (
	LatencyBuckets = []float64{0.000005, 0.00005, 0.0005, 0.005, 0.025, 0.1, 0.5, 1, 5}
	SizeBuckets    = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}
)

// Histogram is a fixed-bucket histogram: per-bucket atomic counts plus an
// atomic sum. Bucket bounds are upper bounds (le); an implicit +Inf bucket
// catches the rest. Observe is lock-free.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
	name    string
	labels  []string
}

func newHistogram(name string, bounds []float64, labels []string) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{
		bounds:  b,
		buckets: make([]atomic.Uint64, len(b)+1),
		name:    name,
		labels:  append([]string(nil), labels...),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the upper bounds and the per-bucket (non-cumulative)
// counts, the final count being the +Inf bucket. Nil-safe (nil, nil).
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return bounds, counts
}

func (h *Histogram) sortKey() string { return seriesName(h.name, h.labels) }
