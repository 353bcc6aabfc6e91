package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.CounterValue("test_total"); got != goroutines*perG {
		t.Fatalf("CounterValue = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterIdentity(t *testing.T) {
	reg := NewRegistry()
	// Same family, same labels in a different order → same series.
	a := reg.Counter("x_total", "level", "local", "zone", "a")
	b := reg.Counter("x_total", "zone", "a", "level", "local")
	if a != b {
		t.Fatal("label order should not create a new series")
	}
	// Different label value → different series.
	c := reg.Counter("x_total", "level", "mid", "zone", "a")
	if a == c {
		t.Fatal("distinct label values must yield distinct series")
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_gauge")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
	g.Add(-1.5)
	g.Inc()
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 802 {
		t.Fatalf("gauge after concurrent adds = %v, want 802", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_seconds", []float64{1, 2, 4})
	// Upper bounds are inclusive (Prometheus "le" semantics): a sample equal
	// to a bound lands in that bound's bucket, epsilon above falls through.
	for _, v := range []float64{0.5, 1} { // bucket le=1
		h.Observe(v)
	}
	for _, v := range []float64{1.0001, 2} { // bucket le=2
		h.Observe(v)
	}
	h.Observe(3)   // bucket le=4
	h.Observe(4)   // bucket le=4
	h.Observe(4.1) // +Inf
	h.Observe(100) // +Inf

	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bounds/counts = %v/%v, want 3 bounds + 4 buckets", bounds, counts)
	}
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if got := h.Count(); got != 8 {
		t.Errorf("count = %d, want 8", got)
	}
	if got, want := h.Sum(), 0.5+1+1.0001+2+3+4+4.1+100; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestHistogramDefaultsAndDuration(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", nil) // nil bounds → LatencyBuckets
	bounds, _ := h.Buckets()
	if len(bounds) != len(LatencyBuckets) {
		t.Fatalf("default bounds = %v, want LatencyBuckets", bounds)
	}
	h.ObserveDuration(50 * time.Millisecond)
	if h.Count() != 1 || h.Sum() != 0.05 {
		t.Fatalf("after ObserveDuration: count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("conc_seconds", []float64{1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 4000 {
		t.Fatalf("count = %d, want 4000", got)
	}
	if got := h.Sum(); got != 2000 {
		t.Fatalf("sum = %v, want 2000", got)
	}
}

// TestNilSafety exercises every instrument through a nil registry: the whole
// point of the design is that disabled pipelines need no guards.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	if reg.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	reg.Help("x", "y")
	c := reg.Counter("c_total", "k", "v")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := reg.Gauge("g")
	g.Set(1)
	g.Add(1)
	g.Inc()
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := reg.Histogram("h_seconds", nil)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
	if b, cs := h.Buckets(); b != nil || cs != nil {
		t.Fatal("nil histogram returned buckets")
	}
	if reg.CounterValue("c_total") != 0 || reg.GaugeValue("g") != 0 {
		t.Fatal("nil registry reported values")
	}
	if err := reg.WritePrometheus(nil); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}

	var tr *Tracer
	sp := tr.Start("x")
	sp.SetAttr("k", "v")
	sp.Event("e")
	sp.End()
	if tr.Started() != 0 || tr.Dropped() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer recorded")
	}

	var set *StageSet
	stSp := set.Start("stage")
	stSp.End()
	set.Observe("stage", time.Second, 1)
	if set.Stats() != nil {
		t.Fatal("nil stage set recorded")
	}
	if err := set.Time("stage", func() error { return nil }); err != nil {
		t.Fatalf("nil StageSet.Time: %v", err)
	}

}

// TestGaugeFuncRegistry pins the GaugeFunc registry contract: first-wins
// registration, conflict with a plain gauge, nil safety, and GaugeValue
// consulting callbacks.
func TestGaugeFuncRegistry(t *testing.T) {
	r := NewRegistry()
	calls := 0
	g := r.GaugeFunc("cb", func() float64 { calls++; return 7 })
	if g2 := r.GaugeFunc("cb", func() float64 { return 99 }); g2 != g {
		t.Fatal("second registration must return the first callback gauge")
	}
	if v := r.GaugeValue("cb"); v != 7 {
		t.Fatalf("GaugeValue(cb) = %v, want 7", v)
	}
	if calls == 0 {
		t.Fatal("callback never evaluated")
	}
	r.Gauge("plain").Set(3)
	if got := r.GaugeFunc("plain", func() float64 { return 1 }); got != nil {
		t.Fatal("GaugeFunc over an existing plain gauge must be refused")
	}
	if v := r.GaugeValue("plain"); v != 3 {
		t.Fatalf("plain gauge shadowed: %v", v)
	}
	if r.GaugeFunc("nilfn", nil) != nil {
		t.Fatal("nil fn must be refused")
	}
	var nilReg *Registry
	if nilReg.GaugeFunc("x", func() float64 { return 1 }) != nil {
		t.Fatal("nil registry must hand out nil")
	}
	var nilG *Gauge
	if nilG.Value() != 0 {
		t.Fatal("nil Gauge must read 0")
	}
}

// TestCounterFuncRegistry pins CounterFunc's contract, GaugeFunc's for
// counters: first-wins, a plain counter's name refused, CounterValue
// consulting the callback, and an exposition line byte-identical to a
// plain counter's at the same value.
func TestCounterFuncRegistry(t *testing.T) {
	r := NewRegistry()
	var tally uint64 = 41
	c := r.CounterFunc("cb_total", func() uint64 { return tally }, "k", "v")
	if c2 := r.CounterFunc("cb_total", func() uint64 { return 99 }, "k", "v"); c2 != c {
		t.Fatal("second registration must return the first callback counter")
	}
	if r.Counter("cb_total", "k", "v") != c {
		t.Fatal("Counter must hand out the callback counter under its key")
	}
	tally++
	if v := r.CounterValue("cb_total", "k", "v"); v != 42 {
		t.Fatalf("CounterValue(cb_total) = %d, want 42", v)
	}
	r.Counter("plain_total").Add(3)
	if r.CounterFunc("plain_total", func() uint64 { return 1 }) != nil {
		t.Fatal("CounterFunc over an existing plain counter must be refused")
	}
	if v := r.CounterValue("plain_total"); v != 3 {
		t.Fatalf("plain counter shadowed: %d", v)
	}
	var nilReg *Registry
	if r.CounterFunc("nilfn_total", nil) != nil || nilReg.CounterFunc("x", func() uint64 { return 1 }) != nil {
		t.Fatal("nil fn and nil registry must hand out nil")
	}

	expose := func(r *Registry) string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	plain := NewRegistry()
	plain.Help("cb_total", "A count.").Counter("cb_total", "k", "v").Add(42)
	r.Help("cb_total", "A count.")
	want := expose(plain)
	if got := expose(r); !strings.HasPrefix(got, want) {
		t.Fatalf("callback counter exposition:\n%s\nplain counter's:\n%s", got, want)
	}
}
