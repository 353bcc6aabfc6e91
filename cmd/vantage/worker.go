// The serve loop (DESIGN.md §19): one worker goroutine per SO_REUSEPORT
// socket. Each worker owns a dnswire.Arena, a private SafeWriter batch
// buffer over the shared O_APPEND dataset file, a source-address string
// cache and a reused dnswire.Responder — so the steady-state
// observe-and-answer path performs no heap allocations and keeps nothing per
// observed name: the live engine is handed its own spelling of a name
// (Engine.Held), never the arena's bytes. Cross-worker synchronisation is
// each writer's flush mutex, the engine's shard inboxes and, once per
// checkpoint, the cut (sink.checkpoint), which reaches a worker through the
// mutex it holds around each record's append and observe. Every socket,
// wrapped by -chaos or not, is served through the same two netip.AddrPort
// calls of netx.Conn.
package main

import (
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"botmeter/internal/dnswire"
	"botmeter/internal/faults"
	"botmeter/internal/netx"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// zoneAnswer is a pre-resolved positive answer: record type plus wire-format
// address bytes, computed once at startup so the hot path does no To4/To16.
type zoneAnswer struct {
	typ  uint16
	data []byte
}

// buildZoneAnswers precomputes the answer bytes for every registered domain.
func buildZoneAnswers(zone map[string]net.IP) map[string]zoneAnswer {
	za := make(map[string]zoneAnswer, len(zone))
	for d, ip := range zone {
		if v4 := ip.To4(); v4 != nil {
			za[d] = zoneAnswer{typ: dnswire.TypeA, data: v4}
		} else {
			za[d] = zoneAnswer{typ: dnswire.TypeAAAA, data: ip.To16()}
		}
	}
	return za
}

// attach creates one worker per socket, each batching into its own
// SafeWriter over the shared dataset file. /healthz covers every worker's
// sticky error from here on.
func (s *sink) attach(conns []netx.Conn, file io.Writer, cfg trace.SafeWriterConfig) {
	for _, c := range conns {
		s.workers = append(s.workers, newVantageWorker(s, c, trace.NewSafeWriter(file, cfg), len(conns)))
	}
}

// serve runs the workers and blocks until all return, then closes their
// writers (flushing the tails) and folds their durable-record counts into
// the sink. A closed socket is a clean shutdown; every real error is
// reported.
func (s *sink) serve() error {
	errs := make([]error, len(s.workers))
	var wg sync.WaitGroup
	for i, w := range s.workers {
		wg.Add(1)
		go func(i int, w *vantageWorker) {
			defer wg.Done()
			errs[i] = w.serve()
		}(i, w)
	}
	wg.Wait()
	for _, w := range s.workers {
		errs = append(errs, w.out.Close())
		s.consumed += w.consumed
	}
	return errors.Join(errs...)
}

// vantageWorker is the single-goroutine state of one socket's pipeline.
type vantageWorker struct {
	s    *sink
	conn netx.Conn
	inj  *faults.Injector // non-nil under -chaos: this socket's SERVFAIL draw

	arena   dnswire.Arena
	msg     dnswire.Message
	out     *trace.SafeWriter     // private batch buffer over the shared O_APPEND file
	servers map[netip.Addr]string // source address → forwarding-server identity
	rbuf    []byte
	resp    dnswire.Responder

	// mu is held around each record's append and observe, so whoever holds
	// every worker's mu sees a dataset and an engine that agree (the
	// checkpoint cut). It is uncontended outside a cut, shares a cache line
	// with nothing another worker writes, and a worker blocked in recv holds
	// nothing. It guards consumed and trig, which the cut reads and re-arms.
	mu       sync.Mutex
	consumed uint64 // records this worker appended; merged into the sink at shutdown
	trig     stream.Trigger
}

// maxServerCache bounds the per-worker source-address string cache; a border
// vantage sees a small stable set of forwarders, so eviction is a non-event.
const maxServerCache = 4096

// newVantageWorker builds the worker for conn, one of n, appending to out.
func newVantageWorker(s *sink, conn netx.Conn, out *trace.SafeWriter, n int) *vantageWorker {
	w := &vantageWorker{
		s:       s,
		conn:    conn,
		out:     out,
		servers: make(map[netip.Addr]string),
		rbuf:    make([]byte, 65535),
		trig:    s.ck.NewTrigger(n),
	}
	if fc, ok := conn.(*faults.PacketConn); ok {
		w.inj = fc.Injector()
	}
	// Canonicalise during decode: label bytes are lowercased as they are
	// copied into the arena, so the dataset and the engine see one spelling.
	w.arena.LowerASCII = true
	return w
}

func (w *vantageWorker) serve() error {
	for {
		n, from, err := w.conn.ReadFromUDPAddrPort(w.rbuf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		resp := w.handle(w.rbuf[:n], w.serverFor(from))
		if resp == nil {
			continue
		}
		if _, err := w.conn.WriteToUDPAddrPort(resp, from); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			// The observation is recorded; only its answer is lost. Returning
			// would leave this socket unread while /healthz stays 200.
			w.s.report(&w.s.sendErrs, "client send failed", err)
		}
	}
}

// serverFor resolves the forwarding server's stable identity (the host; ports
// vary per query) with a per-worker cache, so steady state pays one map probe
// instead of an Addr.String allocation per datagram.
func (w *vantageWorker) serverFor(ap netip.AddrPort) string {
	a := ap.Addr()
	if s, ok := w.servers[a]; ok {
		return s
	}
	if len(w.servers) >= maxServerCache {
		clear(w.servers)
	}
	s := a.Unmap().String()
	w.servers[a] = s
	return s
}

// handle serves one datagram: decode into the arena, record the observation
// (batched write + live engine), answer from the precomputed zone.
func (w *vantageWorker) handle(pkt []byte, server string) []byte {
	if err := dnswire.DecodeInto(pkt, &w.msg, &w.arena); err != nil ||
		w.msg.Header.QR || len(w.msg.Questions) == 0 {
		return nil
	}
	s := w.s
	s.queries.Inc()
	// Application-level chaos: a SERVFAIL burst means the query was received
	// but resolution failed — nothing is recorded, mirroring a border server
	// whose recursion is broken.
	if w.inj != nil && w.inj.ServFail() {
		return w.respond(dnswire.RcodeServFail, zoneAnswer{})
	}
	name := w.msg.Questions[0].Name // arena-backed, already lowercase
	now := time.Now()
	t := sim.Time(now.UnixMilli())
	// The engine's record waits in a shard inbox after this packet's arena
	// is reused, so it carries the engine's own spelling of the name — ""
	// for one the DGA is not charged with — never the arena's bytes. Held
	// runs outside the cut's mutex: an epoch's first lookup builds its pool.
	var held string
	if s.est != nil {
		held = s.est.Held(t, name)
	}
	w.mu.Lock()
	// AppendObserved copies the arena-backed name into the writer's buffer
	// before returning: the dataset keeps every name the vantage saw.
	werr := w.out.AppendObserved(t, server, name)
	due := false
	if werr == nil {
		// Only a record that reached the writer advances the cut: counting
		// one that did not would make a later replay miss it.
		w.consumed++
		due = w.trig.Tick(now)
	}
	var oerr error
	if s.est != nil {
		// Backpressure from the engine's shard inboxes bounds queuing; the
		// only possible error is "engine closed" during shutdown.
		oerr = s.est.Observe(trace.ObservedRecord{T: t, Server: server, Domain: held})
	}
	w.mu.Unlock()
	if werr != nil {
		s.report(&s.writeErrs, "observation write error", werr)
	}
	if oerr != nil {
		s.report(&s.observeErrs, "engine observe error", oerr)
	}
	if due {
		s.checkpoint(w, now)
	}
	// Deterministic crash injection ("die after N records") sits at the end
	// of the observation path, so the Nth record's full effect — append,
	// engine state, any due checkpoint — precedes the crash.
	s.crash.Record()
	if za, ok := s.zone[name]; ok {
		return w.respond(dnswire.RcodeNoError, za)
	}
	return w.respond(dnswire.RcodeNXDomain, zoneAnswer{})
}

// respond answers the decoded query with rcode and, for NOERROR, za.
func (w *vantageWorker) respond(rcode uint8, za zoneAnswer) []byte {
	h := w.msg.Header
	return w.resp.Respond(h.ID, h.RD, w.msg.Questions, rcode, za.typ, za.data, w.s.ttl)
}
