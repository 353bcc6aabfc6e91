package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// script decides, per event id, what that event's callback does, so the
// engine and the reference below can be driven through the same run.
type script struct{ seed uint64 }

type action struct {
	follow      []Time // offsets from now of the follow-ups; negative ones land in the past
	stop        bool
	readPending bool
}

func (s script) action(id int) action {
	r := rand.New(rand.NewPCG(s.seed, uint64(id)))
	a := action{stop: r.IntN(40) == 0, readPending: r.IntN(3) == 0}
	// 0, 1 or 2 follow-ups (fewer as the run grows, so it ends), over a
	// narrow range of offsets so equal times are common.
	n := [...]int{0, 1, 1, 2, 2}[r.IntN(5)]
	if id > 600 {
		n = r.IntN(2)
	}
	for i := 0; i < n; i++ {
		a.follow = append(a.follow, Time(r.IntN(9)-2))
	}
	return a
}

// step is one callback as observed from inside it.
type step struct {
	id     int
	now    Time
	before int // Pending() on entry and after scheduling, or -1 when not read
	after  int
}

// refEngine is the engine's specification: a list kept sorted by (at, seq),
// the running event removed before its callback runs.
type refEngine struct {
	now     Time
	seq     uint64
	queue   []refEvent
	stopped bool
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (r *refEngine) schedule(at Time, id int) {
	if at < r.now {
		at = r.now
	}
	r.queue = append(r.queue, refEvent{at, r.seq, id})
	r.seq++
	sort.Slice(r.queue, func(i, j int) bool {
		if r.queue[i].at != r.queue[j].at {
			return r.queue[i].at < r.queue[j].at
		}
		return r.queue[i].seq < r.queue[j].seq
	})
}

func (r *refEngine) run(horizon Time, call func(id int)) int {
	r.stopped = false
	executed := 0
	for len(r.queue) > 0 && !r.stopped {
		next := r.queue[0]
		if next.at >= horizon {
			r.now = horizon
			return executed
		}
		r.queue = r.queue[1:]
		r.now = next.at
		call(next.id)
		executed++
	}
	if !r.stopped && r.now < horizon {
		r.now = horizon
	}
	return executed
}

// TestEngineTotalOrder drives the engine and the reference through the same
// randomized script — callbacks scheduling 0, 1 or 2 follow-ups, some in the
// past and many at equal times, Stop mid-callback, horizon cuts, Pending()
// read inside callbacks — and requires the same steps, run counts, clocks
// and queue lengths.
func TestEngineTotalOrder(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			s := script{seed: seed}
			nextID := 0

			e := NewEngine()
			var got []step
			var engineCB func(id int) func(*Engine)
			engineCB = func(id int) func(*Engine) {
				return func(en *Engine) {
					a := s.action(id)
					st := step{id: id, now: en.Now(), before: -1, after: -1}
					if a.readPending {
						st.before = en.Pending()
					}
					for _, d := range a.follow {
						nextID++
						en.Schedule(en.Now()+d, engineCB(nextID))
					}
					if a.readPending {
						st.after = en.Pending()
					}
					got = append(got, st)
					if a.stop {
						en.Stop()
					}
				}
			}

			ref := &refEngine{}
			var want []step
			refNextID := 0
			var refCall func(id int)
			refCall = func(id int) {
				a := s.action(id)
				st := step{id: id, now: ref.now, before: -1, after: -1}
				if a.readPending {
					st.before = len(ref.queue)
				}
				for _, d := range a.follow {
					refNextID++
					ref.schedule(ref.now+d, refNextID)
				}
				if a.readPending {
					st.after = len(ref.queue)
				}
				want = append(want, st)
				if a.stop {
					ref.stopped = true
				}
			}

			r := rand.New(rand.NewPCG(seed, 0xe7))
			for i := 0; i < 20; i++ {
				at := Time(r.IntN(30))
				nextID++
				e.Schedule(at, engineCB(nextID))
				refNextID++
				ref.schedule(at, refNextID)
			}
			for horizon := Time(5); len(ref.queue) > 0; horizon += Time(r.IntN(40)) {
				n, wantN := e.Run(horizon), ref.run(horizon, refCall)
				if n != wantN || e.Now() != ref.now || e.Pending() != len(ref.queue) {
					t.Fatalf("Run(%d) = %d, clock %d, pending %d; reference %d, %d, %d",
						horizon, n, e.Now(), e.Pending(), wantN, ref.now, len(ref.queue))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d steps, reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d = %+v, reference %+v", i, got[i], want[i])
				}
			}
			if len(want) < 500 {
				t.Fatalf("only %d steps: the script exercises too little", len(want))
			}
		})
	}
}

// TestEnginePendingInsideCallback: the running event is not pending, before
// and after the callback schedules.
func TestEnginePendingInsideCallback(t *testing.T) {
	e := NewEngine()
	var seen []int
	e.Schedule(1, func(en *Engine) {
		seen = append(seen, en.Pending())
		en.Schedule(2, func(*Engine) {})
		seen = append(seen, en.Pending())
		en.Schedule(2, func(*Engine) {})
		seen = append(seen, en.Pending())
	})
	e.Schedule(5, func(*Engine) {})
	e.Run(2)
	if fmt.Sprint(seen) != "[1 2 3]" || e.Pending() != 3 {
		t.Errorf("Pending inside the callback %v, after %d; want [1 2 3], 3", seen, e.Pending())
	}
}

// TestEngineNestedRun: a callback may drive the engine itself; the outer
// loop resumes where the inner one left off.
func TestEngineNestedRun(t *testing.T) {
	e := NewEngine()
	var order []Time
	e.Schedule(1, func(en *Engine) {
		order = append(order, en.Now())
		en.Run(3)
	})
	for _, at := range []Time{2, 3, 4} {
		e.Schedule(at, func(en *Engine) { order = append(order, en.Now()) })
	}
	if n := e.Run(10); n != 3 || !slices.Equal(order, []Time{1, 2, 3, 4}) || e.Pending() != 0 {
		t.Errorf("executed %d (outer), order %d, pending %d; want 3, [1 2 3 4], 0", n, order, e.Pending())
	}
}

// TestEngineSteadyStateAllocs: once the heap and the slot table have grown,
// scheduling and running pre-bound callbacks allocates nothing.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	var chain, spawn, leaf func(*Engine)
	chain = func(en *Engine) { en.ScheduleAfter(3, chain) }
	leaf = func(*Engine) {}
	spawn = func(en *Engine) {
		en.ScheduleAfter(1, leaf)
		en.ScheduleAfter(5, spawn)
	}
	for i := 0; i < 16; i++ {
		e.Schedule(Time(i), chain)
	}
	e.Schedule(0, spawn)
	e.Run(1000)
	allocs := testing.AllocsPerRun(100, func() { e.Run(e.Now() + 100) })
	if allocs != 0 {
		t.Errorf("%v allocations per 100 simulated time units, want 0", allocs)
	}
}
