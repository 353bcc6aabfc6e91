// The miss pipeline (DESIGN.md §19). A miss is written to the worker's
// connected upstream socket and recorded in its in-flight table; the client
// loop does not wait. The upstream reader validates each response against
// the table, stores it in the cache shard and answers everyone who asked
// for the name meanwhile. Timeouts, retries with jittered backoff, the
// overall deadline and serve-stale are driven by one timer per entry, so
// nothing sleeps and no goroutine is parked per query.
package main

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"botmeter/internal/dnswire"
	"botmeter/internal/obs"
)

const (
	// maxInflight bounds the client queries a worker holds while their names
	// are being resolved, and with it the in-flight table (every entry has a
	// waiter). At the bound the client loop stops reading its socket, so the
	// kernel's buffer sheds the overload and a dark upstream cannot grow the
	// heap. It is also the window of upstream queries without an answer: a
	// default-sized socket buffer (208 KiB) holds about 270 small datagrams,
	// so 256 outstanding can overflow neither the upstream's receive buffer
	// in one burst nor this worker's when the answers come back in one. A
	// datagram lost there costs its clients a whole -timeout.
	maxInflight = 256
	// A recycled entry keeps its buffers up to these sizes; what one odd
	// query grew beyond them goes back to the collector.
	keepWaiters = 8
	keepPacket  = 512
)

// waiter is one client query parked on an entry: what it takes to answer it
// when the exchange completes.
type waiter struct {
	from          netip.AddrPort
	id            uint16 // the client's header ID, restored in its answer
	rd            bool
	qtype, qclass uint16
	t0            time.Time // arrival; zero without metrics
	span          *obs.Span // non-nil when sampled; handed over under the worker's mutex
}

// entry is one name's upstream exchange: the attempts, their clocks, and
// the clients waiting on the outcome. All of it is guarded by the worker's
// mutex.
type entry struct {
	w   *worker
	q   dnswire.Question // what a response must echo; Name is the entry's own copy, its key in byName
	pkt []byte           // the first waiter's datagram; the ID bytes are rewritten per attempt

	live       bool   // in the table (not on the free list)
	attempting bool   // an attempt is outstanding under upID; otherwise backing off
	upID       uint16 // fresh from crypto/rand for every attempt
	attempt    int
	backoff    time.Duration
	overall    time.Time // the exchange's -deadline
	sent       time.Time // when the outstanding attempt went out
	// fireAt is when the armed timer is due. A callback that finds the clock
	// short of it belongs to an earlier arming — it was already running when
	// the timer was stopped or reset — and stands down.
	fireAt time.Time
	timer  *time.Timer

	waiters []waiter
	next    *entry // free list
}

// miss parks wt on the exchange for name, starting one from the query's
// datagram if none is in flight. name is the packet's (arena-backed); a new
// entry keeps a copy, which outlives the packet. Called with w.mu held by
// the client loop, which it blocks while the table is full.
func (w *worker) miss(pkt []byte, name string, wt waiter) {
	wt.span.Event("cache_miss")
	now := time.Now()
	e := w.byName[name]
	first := e == nil
	if first {
		e = w.free
		if e == nil {
			e = &entry{w: w}
		} else {
			w.free = e.next
		}
		e.live = true
		e.q = dnswire.Question{Name: strings.Clone(name), Type: wt.qtype, Class: wt.qclass}
		e.pkt = append(e.pkt[:0], pkt...)
		e.attempt, e.backoff = 0, w.f.cfg.backoff
		e.overall = now.Add(w.f.cfg.deadline)
		w.byName[e.q.Name] = e
	} else {
		// The paper's estimators count one forwarded lookup per name per TTL;
		// a second query upstream while the first is in flight would be a
		// lookup the simulator's cache model never produces.
		w.c.coalesced++
		wt.span.Event("coalesced")
		for i := range e.waiters {
			if o := &e.waiters[i]; o.id == wt.id && o.from == wt.from && o.qtype == wt.qtype && o.qclass == wt.qclass {
				// A client's retransmission: the answer its first copy is
				// waiting for is the answer to this one.
				wt.span.SetAttr("outcome", "retransmission")
				wt.span.End()
				return
			}
		}
	}
	e.waiters = append(e.waiters, wt)
	w.pending++
	if first {
		w.startAttempt(e, now)
	}
	if w.pending >= maxInflight {
		w.f.m.inflightFull.Inc()
		for w.pending >= maxInflight {
			w.slotFree.Wait()
		}
	}
}

// startAttempt sends the entry's query upstream under a fresh ID and arms
// the attempt's timeout.
func (w *worker) startAttempt(e *entry, now time.Time) {
	remaining := e.overall.Sub(now)
	if remaining <= 0 {
		w.finishFailed(e)
		return
	}
	id, err := w.freshID()
	if err == nil {
		binary.BigEndian.PutUint16(e.pkt, id)
		e.upID, e.attempting, e.sent = id, true, now
		w.byID[id] = e
		if span := e.waiters[0].span; span != nil {
			span.Event("upstream_attempt", "attempt", strconv.Itoa(e.attempt))
		}
		_, err = w.up.Write(e.pkt)
	}
	if err != nil {
		w.failAttempt(e, now, err.Error())
		return
	}
	e.arm(now, min(w.f.cfg.timeout, remaining))
}

// freshID draws an upstream ID no outstanding attempt is using. The client's
// own ID is known to whoever triggered the query; this one is not, and a
// retry gets a new one, so an answer to a timed-out attempt matches nothing.
func (w *worker) freshID() (uint16, error) {
	for {
		if w.idsLeft == 0 {
			if _, err := rand.Read(w.ids[:]); err != nil {
				return 0, err
			}
			w.idsLeft = len(w.ids)
		}
		id := binary.BigEndian.Uint16(w.ids[len(w.ids)-w.idsLeft:])
		w.idsLeft -= 2
		if _, taken := w.byID[id]; !taken {
			return id, nil
		}
	}
}

// arm sets the entry's timer to fire d after now.
func (e *entry) arm(now time.Time, d time.Duration) {
	e.fireAt = now.Add(d)
	if e.timer == nil {
		e.timer = time.AfterFunc(d, e.fire)
	} else {
		e.timer.Reset(d)
	}
}

// fire is the timer's callback: the outstanding attempt has timed out, or
// the backoff before the next one is over.
func (e *entry) fire() {
	w := e.w
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	if w.closed || !e.live || now.Before(e.fireAt) {
		return
	}
	if e.attempting {
		w.failAttempt(e, now, "timeout")
	} else {
		w.startAttempt(e, now)
	}
}

// endAttempt retires the outstanding attempt's ID: whatever still arrives
// under it is a mismatch.
func (w *worker) endAttempt(e *entry) {
	if !e.attempting {
		return
	}
	e.attempting = false
	delete(w.byID, e.upID)
	if w.f.m.attemptSecs != nil {
		w.f.m.attemptSecs.Observe(time.Since(e.sent).Seconds())
	}
}

// failAttempt moves a failed attempt (timeout, upstream SERVFAIL, a send the
// socket refused) on to the next rung: a retry after a jittered, doubling
// backoff while retries and the deadline last, then serve-stale or SERVFAIL.
func (w *worker) failAttempt(e *entry, now time.Time, why string) {
	w.endAttempt(e)
	span := e.waiters[0].span // nothing is formatted for the unsampled
	if span != nil {
		span.Event("attempt_failed", "attempt", strconv.Itoa(e.attempt), "err", why)
	}
	if e.attempt >= w.f.cfg.retries {
		w.finishFailed(e)
		return
	}
	e.attempt++
	w.c.retried++
	// Full-ish jitter: uniform in [backoff/2, backoff).
	wait := e.backoff/2 + time.Duration(w.rng.Int64N(int64(e.backoff/2)+1))
	e.backoff *= 2
	if span != nil {
		span.Event("retry", "attempt", strconv.Itoa(e.attempt), "backoff", wait.String())
	}
	e.arm(now, max(min(wait, e.overall.Sub(now)), 0))
}

// finishOK completes an exchange the upstream answered: cache the outcome,
// relay the upstream's bytes to the client whose query went out, and give
// every later waiter what the cache would give it now.
func (w *worker) finishOK(e *entry, resp []byte, rcode uint8) {
	f := w.f
	w.endAttempt(e)
	w.c.forwarded++
	if f.failStreak.Load() != 0 {
		f.failStreak.Store(0)
	}
	nx := rcode == dnswire.RcodeNXDomain
	w.cache.Store(f.now(), e.q.Name, nx)
	for i := range e.waiters {
		wt := &e.waiters[i]
		out := resp
		if i == 0 {
			binary.BigEndian.PutUint16(resp, wt.id)
			if wt.span != nil {
				wt.span.Event("upstream_ok", "rcode", strconv.Itoa(int(rcode)))
			}
			wt.span.SetAttr("outcome", "forwarded")
		} else {
			out = respond(&w.done, wt.id, wt.rd, w.question(e, wt), rcodeOf(nx), cachedAnswerTTL)
			wt.span.SetAttr("outcome", "coalesced")
		}
		w.answer(wt, out)
	}
	w.release(e)
}

// finishFailed completes an exchange whose attempts all failed. Graceful
// degradation: an expired answer beats no answer while the upstream is dark
// (RFC 8767); without one the clients get SERVFAIL.
func (w *worker) finishFailed(e *entry) {
	f := w.f
	w.endAttempt(e)
	f.failStreak.Add(1)
	e.waiters[0].span.Event("upstream_failed")
	stale, ok := w.cache.LookupStale(f.now(), e.q.Name)
	for i := range e.waiters {
		wt := &e.waiters[i]
		rcode, ttl, outcome := uint8(dnswire.RcodeServFail), uint32(0), "servfail"
		if ok {
			rcode, ttl, outcome = rcodeOf(stale.NX), staleAnswerTTL, "stale"
			w.c.staleServed++
		} else {
			w.c.servfails++
		}
		wt.span.SetAttr("outcome", outcome)
		w.answer(wt, respond(&w.done, wt.id, wt.rd, w.question(e, wt), rcode, ttl))
	}
	w.release(e)
}

// question is the entry's name under the waiter's own type and class, as
// the one question w.done echoes.
func (w *worker) question(e *entry, wt *waiter) []dnswire.Question {
	w.doneQ[0] = dnswire.Question{Name: e.q.Name, Type: wt.qtype, Class: wt.qclass}
	return w.doneQ[:]
}

// answer sends a waiter its response and closes its books.
func (w *worker) answer(wt *waiter, resp []byte) {
	if resp != nil {
		w.send(resp, wt.from)
	}
	w.f.observeQuery(wt.t0)
	wt.span.End()
}

// release takes a completed entry out of the table and recycles it.
func (w *worker) release(e *entry) {
	if e.timer != nil {
		e.timer.Stop()
	}
	delete(w.byName, e.q.Name)
	w.pending -= len(e.waiters)
	clear(e.waiters) // drop the spans and addresses
	e.waiters = e.waiters[:0]
	if cap(e.waiters) > keepWaiters {
		e.waiters = nil
	}
	if cap(e.pkt) > keepPacket {
		e.pkt = nil
	}
	e.live = false
	e.next, w.free = w.free, e
	w.slotFree.Broadcast()
}

// serveUpstream reads the upstream socket until it is closed. A datagram is
// accepted only if it is a response, its ID names an outstanding attempt and
// its question is that attempt's — name, type and class. Everything else
// (garbage, an answer to an attempt that timed out, a duplicate) is counted
// and dropped, never cached or relayed.
func (w *worker) serveUpstream() {
	var (
		buf   = make([]byte, 65535)
		arena = dnswire.Arena{LowerASCII: true} // names compare equal to the entries' canonical ones
		msg   dnswire.Message
	)
	for {
		n, err := w.up.Read(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// A connected socket reports the ICMP errors of a dark upstream
			// here. They name no query; the attempts' timers do the failing.
			continue
		}
		ok := dnswire.DecodeInto(buf[:n], &msg, &arena) == nil && msg.Header.QR && len(msg.Questions) > 0
		w.mu.Lock()
		var e *entry
		if ok {
			if e = w.byID[msg.Header.ID]; e != nil && msg.Questions[0] != e.q {
				e = nil
			}
		}
		switch {
		case e == nil:
			w.c.mismatched++
		case msg.Header.Rcode == dnswire.RcodeServFail:
			// Retried, never cached.
			w.failAttempt(e, time.Now(), "upstream answered SERVFAIL")
		default:
			w.finishOK(e, buf[:n], msg.Header.Rcode)
		}
		w.mu.Unlock()
	}
}
