// The serve loop (DESIGN.md §19): one worker per SO_REUSEPORT socket, each
// owning a dnswire.Arena, a name-keyed cache shard, an in-flight table and a
// connected upstream socket. The steady-state cache-hit path — decode,
// canonicalise, cache lookup by the arena's name, encode, send — performs
// zero heap allocations and takes one lock, the worker's own. The worker
// keeps nothing per name but the shard's entry, which goes when the shard
// evicts it, and an in-flight exchange's copy while it lasts. A miss is
// handed to the pipeline in miss.go and the loop goes straight back to its
// socket. Every socket, wrapped by -chaos or not, is served through the same
// two netip.AddrPort calls of netx.Conn.
package main

import (
	"errors"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"botmeter/internal/dnssim"
	"botmeter/internal/dnswire"
	"botmeter/internal/netx"
	"botmeter/internal/sim"
)

// cachedAnswerTTL is the TTL on answers built from the cache shard.
const cachedAnswerTTL = 60

// sinkhole is the address of every positive answer the resolver builds
// itself; a production resolver would cache the full RRset.
var sinkhole = [4]byte{192, 0, 2, 1}

// worker is one socket's pipeline: the client loop, the upstream reader and
// the in-flight entries' timers.
type worker struct {
	f    *forwarder
	conn netx.Conn
	// up is connected: one flow for the kernel to match, so datagrams from
	// any other source are dropped before they reach validation, and the
	// upstream's SO_REUSEPORT hash lands this worker on one socket there.
	up net.Conn

	// The client loop's own; no other goroutine touches these.
	arena dnswire.Arena
	msg   dnswire.Message
	rbuf  []byte
	hit   dnswire.Responder

	// mu orders the client loop, the upstream reader and the timers on
	// everything below. It is this worker's alone: a hit takes it once,
	// uncontended unless a response for this very socket is being handled.
	mu       sync.Mutex
	cache    *dnssim.NameCache   // private shard; its tallies are read by forwarder.cache
	byName   map[string]*entry   // exchanges in flight, by e.q.Name; a second miss for the name joins
	byID     map[uint16]*entry   // upstream ID of each outstanding attempt
	pending  int                 // waiters over all entries, at most maxInflight
	slotFree *sync.Cond          // signalled when pending drops
	free     *entry              // recycled entries
	rng      *sim.RNG            // backoff jitter (seeded: schedules replay)
	ids      [256]byte           // crypto/rand bytes, two per upstream ID
	idsLeft  int                 // unread bytes at the end of ids
	done     dnswire.Responder   // answers built for waiters
	doneQ    [1]dnswire.Question // the one question done echoes
	c        forwarderCounters   // this worker's share of forwarder.counters
	closed   bool                // serve is returning: timers stand down
}

func newWorker(f *forwarder, conn netx.Conn, up net.Conn, seed uint64) *worker {
	cache := dnssim.NewNameCache(f.cfg.posTTL, f.cfg.negTTL)
	cache.StaleTTL = f.cfg.serveStale
	w := &worker{
		f:      f,
		conn:   conn,
		up:     up,
		cache:  cache,
		rbuf:   make([]byte, 65535),
		byName: make(map[string]*entry),
		byID:   make(map[uint16]*entry),
		rng:    sim.NewRNG(seed),
	}
	w.slotFree = sync.NewCond(&w.mu)
	// Canonicalise during decode: label bytes are lowercased as they are
	// copied into the arena, so cache keys need no per-query ToLower pass.
	w.arena.LowerASCII = true
	return w
}

// serve runs the client loop and the upstream reader until the client
// socket closes, then closes the upstream socket and stands the timers down.
// Exchanges still in flight are abandoned, as their clients are.
func (w *worker) serve() error {
	upstreamDone := make(chan struct{})
	go func() {
		defer close(upstreamDone)
		w.serveUpstream()
	}()
	err := w.serveClients()
	w.mu.Lock()
	w.closed = true
	for _, e := range w.byName {
		e.timer.Stop()
	}
	w.mu.Unlock()
	w.up.Close()
	<-upstreamDone
	return err
}

func (w *worker) serveClients() error {
	for {
		n, from, err := w.conn.ReadFromUDPAddrPort(w.rbuf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if resp := w.handle(w.rbuf[:n], from); resp != nil {
			w.send(resp, from)
		}
	}
}

// send writes one response to a client. A closed socket is shutdown, which
// the client loop sees at its next read; any other failure is counted and
// the worker carries on.
func (w *worker) send(resp []byte, to netip.AddrPort) {
	if _, err := w.conn.WriteToUDPAddrPort(resp, to); err != nil && !errors.Is(err, net.ErrClosed) {
		w.f.sendFailed(err)
	}
}

// handle serves one client datagram. A cache hit is answered in place (the
// returned bytes are valid until the next call); a miss joins or starts an
// upstream exchange and is answered when that completes, so handle returns
// nil for it, as it does for anything that is not a query.
func (w *worker) handle(pkt []byte, from netip.AddrPort) []byte {
	if err := dnswire.DecodeInto(pkt, &w.msg, &w.arena); err != nil ||
		w.msg.Header.QR || len(w.msg.Questions) == 0 {
		return nil
	}
	f := w.f
	var t0 time.Time
	if f.m.querySecs != nil {
		t0 = time.Now()
	}
	// The arena decoded the name already lowercased; the shard and the
	// in-flight table are looked up with the arena-backed string directly.
	q := w.msg.Questions[0]
	// A sampled query is followed from here to its answer, across the
	// hand-off to the upstream reader if it misses. Only a sampled one pays
	// for the span and for a copy of the name that outlives the packet.
	span := f.cfg.tracer.Start("resolver.query")
	if span != nil {
		span.SetAttr("domain", strings.Clone(q.Name))
	}
	hdr := w.msg.Header

	w.mu.Lock()
	w.c.queries++
	ans, hit := w.cache.Lookup(f.now(), q.Name)
	if !hit {
		w.miss(pkt, q.Name, waiter{from: from, id: hdr.ID, rd: hdr.RD, qtype: q.Type, qclass: q.Class, t0: t0, span: span})
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	if span != nil {
		span.Event("cache_hit", "nx", strconv.FormatBool(ans.NX))
		span.SetAttr("outcome", "cache_hit")
		span.End()
	}
	f.observeQuery(t0)
	return respond(&w.hit, hdr.ID, hdr.RD, w.msg.Questions[:1], rcodeOf(ans.NX), cachedAnswerTTL)
}

func rcodeOf(nx bool) uint8 {
	if nx {
		return dnswire.RcodeNXDomain
	}
	return dnswire.RcodeNoError
}

// respond encodes one of the resolver's own answers — from the cache, stale,
// or SERVFAIL — into r: the sinkhole address with ttl for NOERROR to an A/IN
// question, no answer otherwise (the cache knows a name exists, not which
// records of another type it holds). The client loop has a Responder for
// hits and the pipeline one, under the worker's mutex, for waiters.
func respond(r *dnswire.Responder, id uint16, rd bool, qs []dnswire.Question, rcode uint8, ttl uint32) []byte {
	var data []byte
	if q := qs[0]; rcode == dnswire.RcodeNoError && q.Type == dnswire.TypeA && q.Class == dnswire.ClassIN {
		data = sinkhole[:]
	}
	return r.Respond(id, rd, qs, rcode, dnswire.TypeA, data, ttl)
}
