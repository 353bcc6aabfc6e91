package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		d    time.Duration
		want Time
	}{
		{"millisecond", time.Millisecond, Millisecond},
		{"second", time.Second, Second},
		{"minute", time.Minute, Minute},
		{"hour", time.Hour, Hour},
		{"day", 24 * time.Hour, Day},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := FromDuration(tt.d); got != tt.want {
				t.Errorf("FromDuration(%v) = %v, want %v", tt.d, got, tt.want)
			}
			if got := tt.want.Duration(); got != tt.d {
				t.Errorf("Duration() = %v, want %v", got, tt.d)
			}
		})
	}
}

func TestTimeTruncate(t *testing.T) {
	tests := []struct {
		t, g, want Time
	}{
		{1234, 100, 1200},
		{1234, 1000, 1000},
		{1234, 0, 1234},
		{1234, -5, 1234},
		{999, 1000, 0},
	}
	for _, tt := range tests {
		if got := tt.t.Truncate(tt.g); got != tt.want {
			t.Errorf("%d.Truncate(%d) = %d, want %d", tt.t, tt.g, got, tt.want)
		}
	}
}

func TestTimeString(t *testing.T) {
	got := (2*Day + 3*Hour + 4*Minute + 5*Second + 6*Millisecond).String()
	if got != "2:03:04:05.006" {
		t.Errorf("String() = %q", got)
	}
	if got := (-Second).String(); got != "-0:00:00:01.000" {
		t.Errorf("negative String() = %q", got)
	}
}

func TestWindowSplit(t *testing.T) {
	w := Window{Start: 0, End: 10 * Day}
	parts := w.Split(4)
	if len(parts) != 4 {
		t.Fatalf("got %d parts", len(parts))
	}
	if parts[0].Start != 0 || parts[3].End != 10*Day {
		t.Errorf("split does not tile window: %+v", parts)
	}
	for i := 1; i < len(parts); i++ {
		if parts[i].Start != parts[i-1].End {
			t.Errorf("gap between sub-windows %d and %d", i-1, i)
		}
	}
	if (Window{}).Split(0) != nil {
		t.Error("Split(0) should be nil")
	}
}

func TestWindowSplitTilesProperty(t *testing.T) {
	f := func(lenRaw uint32, nRaw uint8) bool {
		w := Window{Start: 0, End: Time(lenRaw%1000000) + 1}
		n := int(nRaw%20) + 1
		parts := w.Split(n)
		if len(parts) != n {
			return false
		}
		var total Time
		for _, p := range parts {
			total += p.Len()
		}
		return total == w.Len() && parts[0].Start == w.Start && parts[n-1].End == w.End
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func(*Engine) { order = append(order, 3) })
	e.Schedule(10, func(*Engine) { order = append(order, 1) })
	e.Schedule(20, func(*Engine) { order = append(order, 2) })
	n := e.Run(100)
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Errorf("order[%d] = %d, want %d", i, order[i], want)
		}
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want horizon 100", e.Now())
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func(*Engine) { order = append(order, i) })
	}
	e.Run(10)
	for i := range order {
		if order[i] != i {
			t.Fatalf("simultaneous events out of scheduling order: %v", order)
		}
	}
}

func TestEngineHorizonStopsExecution(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(50, func(*Engine) { fired = true })
	if n := e.Run(50); n != 0 {
		t.Errorf("executed %d events, want 0 (event at horizon)", n)
	}
	if fired {
		t.Error("event at horizon should not fire")
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	// A later Run picks it up.
	e.Run(51)
	if !fired {
		t.Error("event should fire once horizon passes it")
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	e := NewEngine()
	var times []Time
	var chain func(*Engine)
	chain = func(en *Engine) {
		times = append(times, en.Now())
		if len(times) < 5 {
			en.ScheduleAfter(10, chain)
		}
	}
	e.Schedule(0, chain)
	e.Run(1000)
	want := []Time{0, 10, 20, 30, 40}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
}

func TestEnginePastEventClampedToNow(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.Schedule(100, func(en *Engine) {
		en.Schedule(5, func(en2 *Engine) { at = en2.Now() })
	})
	e.Run(1000)
	if at != 100 {
		t.Errorf("past-scheduled event ran at %v, want 100", at)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func(en *Engine) {
			count++
			if count == 3 {
				en.Stop()
			}
		})
	}
	e.Run(100)
	if count != 3 {
		t.Errorf("executed %d events after Stop, want 3", count)
	}
}

func TestEngineExecutesInTimeOrderProperty(t *testing.T) {
	// Whatever order events are scheduled in, they execute sorted by time
	// (ties by scheduling order).
	f := func(times []uint16) bool {
		e := NewEngine()
		var executed []Time
		for _, tv := range times {
			at := Time(tv)
			e.Schedule(at, func(en *Engine) { executed = append(executed, en.Now()) })
		}
		e.Run(1 << 30)
		if len(executed) != len(times) {
			return false
		}
		for i := 1; i < len(executed); i++ {
			if executed[i] < executed[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give identical streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	s1 := parent.Split(1)
	s2 := parent.Split(2)
	s1Again := NewRNG(7).Split(1)
	for i := 0; i < 50; i++ {
		if s1.Uint64() != s1Again.Uint64() {
			t.Fatal("Split must be deterministic per label")
		}
	}
	diverged := false
	s1 = NewRNG(7).Split(1)
	for i := 0; i < 10; i++ {
		if s1.Uint64() != s2.Uint64() {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different labels should diverge")
	}
}

func TestRNGSplitDependsOnParentSeed(t *testing.T) {
	// Regression: Split must mix the parent's seed, or two botnets with
	// different seeds would generate identical domain pools.
	a := NewRNG(101).Split(42)
	b := NewRNG(202).Split(42)
	same := true
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("same label under different parent seeds must diverge")
	}
	// Nested splits inherit the mixed lineage.
	c := NewRNG(101).Split(1).Split(2)
	d := NewRNG(202).Split(1).Split(2)
	same = true
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("nested splits must also depend on the root seed")
	}
}

func TestRNGExp(t *testing.T) {
	rng := NewRNG(1)
	// Mean of Exp(rate) is 1/rate; with 20k samples the sample mean should
	// land within a few percent.
	const rate = 1.0 / 5000 // events per ms, mean 5000 ms
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(rng.Exp(rate))
	}
	mean := sum / n
	if mean < 4500 || mean > 5500 {
		t.Errorf("sample mean %v, want ≈5000", mean)
	}
	if NewRNG(1).Exp(0) < Time(1)<<61 {
		t.Error("zero rate should give effectively infinite gap")
	}
}

func TestActivationConstantRateCount(t *testing.T) {
	m := ActivationModel{}
	rng := NewRNG(99)
	// With λ0 = N/δe, the expected number of arrivals inside the epoch is
	// slightly under N (sum of N exponential gaps ≈ δe). Check that a large
	// run lands in a plausible band.
	var total int
	const trials = 50
	const n = 128
	for i := 0; i < trials; i++ {
		times := m.EpochActivations(rng.Split(uint64(i)), n, 0, Day)
		total += len(times)
		if !sort.SliceIsSorted(times, func(a, b int) bool { return times[a] < times[b] }) {
			t.Fatal("activation times must be sorted")
		}
		for _, at := range times {
			if at < 0 || at >= Day {
				t.Fatalf("activation %v outside epoch", at)
			}
		}
	}
	avg := float64(total) / trials
	if avg < n*0.5 || avg > n*1.0 {
		t.Errorf("average activations per epoch = %v, want within [%d, %d]", avg, n/2, n)
	}
}

func TestActivationStrictlyIncreasing(t *testing.T) {
	m := ActivationModel{Sigma: 2.5}
	times := m.EpochActivations(NewRNG(5), 500, 0, Day)
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("times not strictly increasing at %d: %v <= %v", i, times[i], times[i-1])
		}
	}
}

func TestActivationZeroPopulation(t *testing.T) {
	m := ActivationModel{}
	if got := m.EpochActivations(NewRNG(1), 0, 0, Day); got != nil {
		t.Errorf("zero population should give nil, got %v", got)
	}
	if got := m.EpochActivations(NewRNG(1), 5, 0, 0); got != nil {
		t.Errorf("zero epoch should give nil, got %v", got)
	}
}

func TestActivationDynamicRateIncreasesVariance(t *testing.T) {
	constant := ActivationModel{}
	dynamic := ActivationModel{Sigma: 2.5}
	varOf := func(m ActivationModel, seedBase uint64) float64 {
		var counts []float64
		for i := 0; i < 60; i++ {
			times := m.EpochActivations(NewRNG(seedBase+uint64(i)), 64, 0, Day)
			counts = append(counts, float64(len(times)))
		}
		mean := 0.0
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		v := 0.0
		for _, c := range counts {
			v += (c - mean) * (c - mean)
		}
		return v / float64(len(counts)-1)
	}
	vc := varOf(constant, 1000)
	vd := varOf(dynamic, 2000)
	if vd <= vc {
		t.Errorf("dynamic-rate variance (%v) should exceed constant-rate variance (%v)", vd, vc)
	}
}

func TestNormal(t *testing.T) {
	rng := NewRNG(3)
	var sum, sumsq float64
	const n = 20000
	for i := 0; i < n; i++ {
		x := rng.Normal(10, 2)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("mean = %v, want ≈10", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("std = %v, want ≈2", std)
	}
}
