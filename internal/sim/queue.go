package sim

// event is one heap element: when it runs, its tie-breaker, and the slot of
// its callback in the engine's fns table. It holds no pointer, so moving it
// during a sift is a plain copy the garbage collector never hears about;
// with the callback inline, every swap of the hottest loop in the simulator
// paid a write barrier (about half of the heap's CPU in Figure 6(a)).
type event struct {
	at   Time
	seq  uint64 // scheduling order: (at, seq) is unique, so pop order is total
	slot int32
}

func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by (at, seq), so that
// simultaneous events fire in the order scheduled. It is a flat value slice
// with hand-rolled sift loops instead of container/heap, whose interface API
// boxed every Push and Pop (once ~35% of the experiments' allocated
// objects); the slice grows amortised and is reused for the whole run.
// Because the keys are unique the pop order does not depend on the heap's
// shape, which is what lets Engine replace the root in place.
type eventHeap []event

// push appends ev and sifts it up.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

// replaceRoot overwrites the minimum with ev and sifts it down: a pop and a
// push for the price of one sift.
func (h eventHeap) replaceRoot(ev event) {
	n := len(h)
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h[right].before(h[child]) {
			child = right
		}
		if !h[child].before(ev) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = ev
}

// popRoot removes the minimum.
func (h *eventHeap) popRoot() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	if n > 0 {
		q.replaceRoot(last)
	}
	*h = q
}

// Engine is a deterministic discrete-event simulation loop. The zero value
// is ready to use; events scheduled in the past are executed at the current
// virtual time.
//
// Callbacks live in fns, indexed by an event's slot, with freed slots
// recycled: a callback is written once when scheduled and cleared once when
// it runs, never moved by a sift. While a callback runs its event stays at
// the root of the heap, marked stale; the first event that callback
// schedules overwrites the root and sifts down once, so the simulator's
// common step — run a query, schedule the bot's next — costs one sift-down
// instead of a pop and a push. A callback that schedules nothing has its
// root popped after it returns.
type Engine struct {
	now     Time
	queue   eventHeap
	fns     []func(*Engine)
	free    []int32 // recycled fns slots
	nextSeq uint64
	stopped bool
	// staleRoot is set while queue[0] is the event whose callback is running.
	staleRoot bool
}

// NewEngine returns an engine whose clock starts at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule enqueues fn to run at virtual time at. Times before Now are
// clamped to Now (the event still runs, immediately next).
func (e *Engine) Schedule(at Time, fn func(*Engine)) {
	if at < e.now {
		at = e.now
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.fns[slot] = fn
	} else {
		slot = int32(len(e.fns))
		e.fns = append(e.fns, fn)
	}
	ev := event{at: at, seq: e.nextSeq, slot: slot}
	e.nextSeq++
	if e.staleRoot {
		e.staleRoot = false
		e.queue.replaceRoot(ev)
		return
	}
	e.queue.push(ev)
}

// ScheduleAfter enqueues fn to run delay units after the current time.
func (e *Engine) ScheduleAfter(delay Time, fn func(*Engine)) {
	e.Schedule(e.now+delay, fn)
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// dropStaleRoot pops the event whose callback ran without scheduling.
func (e *Engine) dropStaleRoot() {
	if e.staleRoot {
		e.staleRoot = false
		e.queue.popRoot()
	}
}

// Run executes events in timestamp order until the queue empties, Stop is
// called, or the next event is at or beyond horizon. It returns the number
// of events executed. The clock is left at the time of the last executed
// event (or at horizon when the run drains up to it).
func (e *Engine) Run(horizon Time) int {
	e.stopped = false
	e.dropStaleRoot() // Run called from inside a callback
	executed := 0
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if next.at >= horizon {
			e.now = horizon
			return executed
		}
		fn := e.fns[next.slot]
		e.fns[next.slot] = nil // release the closure for GC
		e.free = append(e.free, next.slot)
		e.now = next.at
		e.staleRoot = true
		fn(e)
		e.dropStaleRoot()
		executed++
	}
	if !e.stopped && e.now < horizon {
		e.now = horizon
	}
	return executed
}

// Pending returns the number of queued events; the one whose callback is
// running does not count.
func (e *Engine) Pending() int {
	if e.staleRoot {
		return len(e.queue) - 1
	}
	return len(e.queue)
}
