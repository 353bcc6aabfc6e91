package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"botmeter/internal/dga"
	"botmeter/internal/dnswire"
	"botmeter/internal/sim"
)

const (
	// wireListeners is the daemons' -listeners: one socket worker each. The
	// reference box has two cores shared with this driver, so more workers
	// would measure the scheduler; the scaling sweep waits for four cores.
	wireListeners = 1
	wireInFlight  = 32 // closed-loop window
	wireTimeout   = time.Second
	wireWarmUp    = 500 * time.Millisecond
	wireDrain     = 500 * time.Millisecond // what a run sets aside for the open loop to drain
	wireDrainMax  = 3 * time.Second        // how long it may take on a bad day before the rest counts as failed
	wireRetry     = 200 * time.Millisecond // open loop: resend once after this long
	retrySpan     = 1 << 14                // how many sends back retry looks
	wireWindow    = 100 * time.Millisecond // rates and latencies are taken per window
	cpuWindows    = 5                      // CPU per query is taken over this many
	hotNames      = 1024
	// rssQueries is how many queries of the capacity phase the pipeline has
	// answered when its memory is read. On chain-miss every query leaves a
	// name and a cache entry behind, so memory read at the end of a run
	// follows how many queries the day let through.
	rssQueries = 50_000
	liveFamily = "newgoz"
	// chainPoolEvery is how often chain-miss draws from the live family's
	// pool. Every name must be new, and the pool has 10 000 names a day, so
	// the issue's 50/50 mix would exhaust it in under a second.
	chainPoolEvery = 16
)

// wireSpec is what distinguishes the four wire workloads.
type wireSpec struct {
	resolver   bool // queries go to a resolver in front of the vantage
	checkpoint bool // the vantage checkpoints its engine
	sources    int  // loopback source addresses (forwarding servers)
	rate       int  // open-loop query rate of the latency phase
}

var wireSpecs = map[string]wireSpec{
	"resolver-hit":    {resolver: true, sources: 1, rate: 10000},
	"chain-miss":      {resolver: true, sources: 1, rate: 8000},
	"border-tap":      {sources: 2, rate: 10000},
	"border-tap-safe": {sources: 2, rate: 10000, checkpoint: true},
}

// querySet is a workload's sequence of DNS questions.
type querySet interface {
	// packet returns query seq in wire form with the ID bytes unset. The
	// slice is the set's own and is valid until the next call.
	packet(seq uint32) []byte
	// matches reports whether question is what query seq asked.
	matches(seq uint32, question string) bool
	// sample returns n of the set's names, for the traced replay.
	sample(n int) []string
}

// rotation cycles over a fixed list of names.
type rotation struct {
	names []string
	pkts  [][]byte
}

func newRotation(names []string) (*rotation, error) {
	r := &rotation{names: names, pkts: make([][]byte, len(names))}
	for i, n := range names {
		pkt, err := dnswire.NewQuery(0, n).Encode()
		if err != nil {
			return nil, fmt.Errorf("encoding %q: %w", n, err)
		}
		r.pkts[i] = pkt
	}
	return r, nil
}

func (r *rotation) packet(seq uint32) []byte { return r.pkts[int(seq)%len(r.pkts)] }

func (r *rotation) matches(seq uint32, question string) bool {
	return r.names[int(seq)%len(r.names)] == question
}

func (r *rotation) sample(n int) []string { return r.names[:min(n, len(r.names))] }

// neverSeen asks a new name every time: the sequence number printed into a
// fixed-width label, except that every chainPoolEvery-th query takes the next
// unused name of the live family's pool while the pool lasts.
type neverSeen struct {
	pool   *rotation
	tmpl   []byte // encoded query for u00000000.<suffix>
	digits int    // offset of the eight digits in tmpl
	suffix string // ".s<seed>.miss.example"
}

func newNeverSeen(pool *rotation, seed uint64) (*neverSeen, error) {
	suffix := fmt.Sprintf(".s%x.miss.example", seed)
	tmpl, err := dnswire.NewQuery(0, "u00000000"+suffix).Encode()
	if err != nil {
		return nil, err
	}
	return &neverSeen{pool: pool, tmpl: tmpl, digits: bytes.Index(tmpl, []byte("u00000000")) + 1, suffix: suffix}, nil
}

// fromPool reports which pool name query seq takes, if any.
func (u *neverSeen) fromPool(seq uint32) (int, bool) {
	i := int(seq / chainPoolEvery)
	return i, seq%chainPoolEvery == 0 && i < len(u.pool.names)
}

func (u *neverSeen) packet(seq uint32) []byte {
	if i, ok := u.fromPool(seq); ok {
		return u.pool.pkts[i]
	}
	d := u.tmpl[u.digits : u.digits+8]
	for i, v := 7, seq%100_000_000; i >= 0; i, v = i-1, v/10 {
		d[i] = byte('0' + v%10)
	}
	return u.tmpl
}

func (u *neverSeen) matches(seq uint32, question string) bool {
	if i, ok := u.fromPool(seq); ok {
		return u.pool.names[i] == question
	}
	if len(question) != 9+len(u.suffix) || question[0] != 'u' || question[9:] != u.suffix {
		return false
	}
	v, err := strconv.ParseUint(question[1:9], 10, 32)
	return err == nil && uint32(v) == seq%100_000_000
}

func (u *neverSeen) sample(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("u%08d%s", i, u.suffix)
	}
	return out
}

// currentEpoch is the live engine's epoch index: the UTC day.
func currentEpoch() int { return int(time.Now().UnixMilli() / int64(sim.Day)) }

// wireQueries builds a workload's query set from the seed.
func wireQueries(workload string, seed uint64, epoch int) (querySet, error) {
	rng := sim.NewRNG(seed)
	benign := func(n int, zone string) []string {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("h%07x-%d.%s.example", rng.Uint64()&0xfffffff, i, zone)
		}
		return names
	}
	if workload == "resolver-hit" {
		return newRotation(benign(hotNames, "hot"))
	}
	spec, err := dga.Lookup(liveFamily)
	if err != nil {
		return nil, err
	}
	pool := spec.Pool.PoolFor(seed, epoch).Domains
	if workload == "chain-miss" {
		r, err := newRotation(pool)
		if err != nil {
			return nil, err
		}
		return newNeverSeen(r, seed)
	}
	// border-tap: pool and benign names alternate, so half of what the
	// vantage observes matches the live family.
	other := benign(len(pool), "tap")
	mixed := make([]string, 0, 2*len(pool))
	for i := range pool {
		mixed = append(mixed, pool[i], other[i])
	}
	return newRotation(mixed)
}

// pipeline is the daemons of one wire run.
type pipeline struct {
	vantage  *daemon
	resolver *daemon // nil on the border-tap workloads
	target   string  // where the driver sends
	observed string  // the vantage's observed.jsonl
}

func (p *pipeline) daemons() []*daemon {
	if p.resolver == nil {
		return []*daemon{p.vantage}
	}
	return []*daemon{p.resolver, p.vantage}
}

// stop ends both daemons; with grace they are asked first, so the vantage
// flushes its dataset.
func (p *pipeline) stop(grace time.Duration) {
	for _, d := range p.daemons() {
		d.stop(grace)
	}
}

// startPipeline spawns the workload's daemons in dir and waits until each is
// healthy.
func startPipeline(ctx context.Context, binDir, dir string, spec wireSpec, seed uint64, cpus []int) (*pipeline, error) {
	var addrs [4]string
	for i, network := range []string{"udp", "tcp", "udp", "tcp"} {
		var err error
		if addrs[i], err = freeAddr(network); err != nil {
			return nil, err
		}
	}
	p := &pipeline{target: addrs[0], observed: filepath.Join(dir, "observed.jsonl")}
	args := []string{
		"-listen", addrs[0], "-obs-addr", addrs[1], "-observed", p.observed,
		"-live-estimate", liveFamily, "-live-seed", fmt.Sprint(seed),
		"-listeners", fmt.Sprint(wireListeners), "-log-level", "warn",
		// The observatory's periodic snapshot holds the shards for tens of
		// milliseconds once every ten seconds. Where in a 16 s run that lands
		// is luck: in the closed loop it costs a window, in the open loop it
		// overflows the socket buffer. stream-replay times snapshots instead.
		"-history-interval", "1h",
	}
	if spec.checkpoint {
		args = append(args, "-checkpoint-dir", filepath.Join(dir, "checkpoints"), "-checkpoint-every", "50000")
	}
	var err error
	p.vantage, err = startDaemon(ctx, "vantage", filepath.Join(binDir, "vantage"), addrs[1], filepath.Join(dir, "vantage.log"), cpus, args...)
	if err != nil {
		return nil, err
	}
	if !spec.resolver {
		return p, nil
	}
	p.target = addrs[2]
	p.resolver, err = startDaemon(ctx, "resolver", filepath.Join(binDir, "resolver"), addrs[3], filepath.Join(dir, "resolver.log"), cpus,
		"-listen", addrs[2], "-obs-addr", addrs[3], "-upstream", addrs[0],
		"-listeners", fmt.Sprint(wireListeners), "-log-level", "warn", "-trace-sample", "0")
	if err != nil {
		p.vantage.stop(0)
		return nil, err
	}
	return p, nil
}

// flight is one query awaiting its answer, indexed by DNS ID.
type flight struct {
	due atomic.Int64  // ns since the driver's base when it was due; 0 = free
	seq atomic.Uint32 // which query of the set it is
}

// never is the recorded latency of a query that got no answer; in the
// percentiles it counts as unansweredUS, longer than any answer can take.
const (
	never        = math.MaxInt64
	unansweredUS = 1e9
)

// recorder collects the latency phase's samples: when each query was due
// and how long after that its answer came (never for the unanswered).
type recorder struct {
	due, lat []int64 // ns; due is since the driver's base
	n        atomic.Int64
}

func newRecorder(n int) *recorder { return &recorder{due: make([]int64, n), lat: make([]int64, n)} }

func (r *recorder) record(due, lat int64) {
	if i := r.n.Add(1) - 1; int(i) < len(r.lat) {
		r.due[i], r.lat[i] = due, lat
	}
}

// unanswered reports how many recorded queries got no answer and when, from
// start, the first and the last of them were due.
func (r *recorder) unanswered(start int64) (first, last time.Duration, n int) {
	for i := 0; i < int(min(r.n.Load(), int64(len(r.lat)))); i++ {
		if r.lat[i] != never {
			continue
		}
		at := time.Duration(r.due[i] - start)
		if n == 0 || at < first {
			first = at
		}
		last = max(last, at)
		n++
	}
	return first, last, n
}

// windows groups the latencies, in microseconds, by the wireWindow their
// query was due in, counted from start; each group is sorted.
func (r *recorder) windows(start int64) [][]float64 {
	var out [][]float64
	for i := 0; i < int(min(r.n.Load(), int64(len(r.lat)))); i++ {
		w := int((r.due[i] - start) / int64(wireWindow))
		if w < 0 {
			continue
		}
		for len(out) <= w {
			out = append(out, nil)
		}
		us := unansweredUS
		if r.lat[i] != never {
			us = float64(r.lat[i]) / 1e3
		}
		out[w] = append(out[w], us)
	}
	for _, w := range out {
		sort.Float64s(w)
	}
	return out
}

// driver is the load generator: one sending goroutine (the caller's) and one
// receiving goroutine per socket.
type driver struct {
	conns  []*net.UDPConn
	q      querySet
	base   time.Time
	slots  []flight
	tokens chan struct{} // closed loop: one per query that may be sent
	closed atomic.Bool   // whether consumed answers return a token
	rec    atomic.Pointer[recorder]
	wg     sync.WaitGroup

	seq         uint32 // sender's
	sent        int64
	retried     []uint8 // by DNS ID: how often the query was sent again
	retransmits int64
	timeouts    atomic.Int64

	answered    atomic.Int64 // receivers': right ID, right question
	mismatched  atomic.Int64 // right ID, wrong question
	undecodable atomic.Int64
}

// newDriver opens one connected socket per source address. Where the
// loopback aliases 127.0.0.2… cannot be bound it falls back to one source.
func newDriver(target string, sources int, q querySet) (*driver, error) {
	raddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	d := &driver{q: q, base: time.Now(), slots: make([]flight, 1<<16), retried: make([]uint8, 1<<16), tokens: make(chan struct{}, wireInFlight)}
	for i := 0; i < sources; i++ {
		laddr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, byte(1+i))}
		c, err := net.DialUDP("udp", laddr, raddr)
		if err != nil {
			if i == 0 {
				return nil, err
			}
			break // single-source fallback
		}
		c.SetReadBuffer(4 << 20)
		c.SetWriteBuffer(4 << 20)
		d.conns = append(d.conns, c)
	}
	for i := 0; i < wireInFlight; i++ {
		d.tokens <- struct{}{}
	}
	for _, c := range d.conns {
		d.wg.Add(1)
		go d.receive(c)
	}
	return d, nil
}

// close stops the receivers and waits for them.
func (d *driver) close() {
	for _, c := range d.conns {
		c.Close()
	}
	d.wg.Wait()
}

func (d *driver) now() int64 { return int64(time.Since(d.base)) + 1 } // never 0: 0 marks a free slot

func (d *driver) receive(c *net.UDPConn) {
	defer d.wg.Done()
	var (
		buf   = make([]byte, 65535)
		arena dnswire.Arena
		msg   dnswire.Message
	)
	for {
		n, err := c.Read(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // e.g. ECONNREFUSED bounced back from an earlier send
		}
		now := d.now()
		if err := dnswire.DecodeInto(buf[:n], &msg, &arena); err != nil || !msg.Header.QR {
			d.undecodable.Add(1)
			continue
		}
		fl := &d.slots[msg.Header.ID]
		due := fl.due.Swap(0)
		if due == 0 {
			continue // a second answer to a query that was sent again
		}
		if len(msg.Questions) != 1 || !d.q.matches(fl.seq.Load(), msg.Questions[0].Name) {
			d.mismatched.Add(1)
		} else {
			d.answered.Add(1)
			if r := d.rec.Load(); r != nil {
				r.record(due, now-due)
			}
		}
		if d.closed.Load() {
			d.tokens <- struct{}{}
		}
	}
}

// send issues the next query of the set, due at the given time.
func (d *driver) send(due int64) {
	seq := d.seq
	d.seq++
	fl := &d.slots[uint16(seq)]
	fl.seq.Store(seq)
	d.retried[uint16(seq)] = 0
	if old := fl.due.Swap(due); old != 0 {
		// The query 65 536 sends ago was never answered.
		d.expire(old)
	}
	d.transmit(seq)
	d.sent++
}

// transmit puts query seq on the wire under the ID of its slot. A failed
// write is a query that will never be answered; it times out.
func (d *driver) transmit(seq uint32) {
	pkt := d.q.packet(seq)
	pkt[0], pkt[1] = byte(seq>>8), byte(seq)
	d.conns[int(seq)%len(d.conns)].Write(pkt)
}

// retry sends again every query of the open loop that has waited another
// wireRetry, as a stub resolver would. The daemons' sockets hold some 270
// datagrams, so a daemon that stalls for 30 ms at 10 000 qps (a checkpoint,
// a garbage collection, a write held up by the page cache, its virtual CPU
// taken away) drops what arrives meanwhile. With the retry such a query is
// answered late, which the upper percentiles show, and only one that is
// still unanswered when the phase has drained counts as failed.
func (d *driver) retry() {
	now := d.now()
	for seq := d.seq - min(d.seq, retrySpan); seq != d.seq; seq++ {
		fl := &d.slots[uint16(seq)]
		tries := int64(d.retried[uint16(seq)]) + 1
		if due := fl.due.Load(); due != 0 && now-due > tries*int64(wireRetry) && fl.seq.Load() == seq {
			d.retried[uint16(seq)]++
			d.retransmits++
			d.transmit(seq)
		}
	}
}

// expire gives up on the query that was due at due.
func (d *driver) expire(due int64) {
	d.timeouts.Add(1)
	if r := d.rec.Load(); r != nil {
		r.record(due, never)
	}
	if d.closed.Load() {
		d.tokens <- struct{}{}
	}
}

// sweep expires every query outstanding for longer than limit.
func (d *driver) sweep(limit time.Duration) {
	now := d.now()
	for i := range d.slots {
		fl := &d.slots[i]
		if due := fl.due.Load(); due != 0 && now-due > int64(limit) && fl.due.CompareAndSwap(due, 0) {
			d.expire(due)
		}
	}
}

// outstanding is how many queries have neither been answered nor expired.
func (d *driver) outstanding() int64 {
	return d.sent - d.answered.Load() - d.mismatched.Load() - d.timeouts.Load()
}

// settle waits until nothing is outstanding, expiring what is still
// unanswered after limit.
func (d *driver) settle(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for d.outstanding() > 0 {
		if time.Now().After(deadline) {
			d.sweep(0)
			return
		}
		if !d.closed.Load() {
			d.retry()
		}
		time.Sleep(time.Millisecond)
	}
}

// phase is what one phase of a run sent and got back.
type phase struct {
	sent, answered, failed int64
	seconds                float64
}

// phaseSince sums up a phase that began with the given counts and took
// seconds to send; it is called once the phase has settled.
func (d *driver) phaseSince(sent, answered int64, seconds float64) phase {
	p := phase{sent: d.sent - sent, answered: d.answered.Load() - answered, seconds: seconds}
	p.failed = p.sent - p.answered
	return p
}

// closedLoop keeps wireInFlight queries in flight for dur, and at least
// until minSends queries have gone out. A query unanswered after wireTimeout
// is a failure and frees its place.
func (d *driver) closedLoop(dur time.Duration, minSends int64) phase {
	d.closed.Store(true)
	sent0, answered0, start := d.sent, d.answered.Load(), time.Now()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for time.Since(start) < dur || d.sent-sent0 < minSends {
		select {
		case <-d.tokens:
			d.send(d.now())
		case <-tick.C:
			d.sweep(wireTimeout)
		}
	}
	seconds := time.Since(start).Seconds()
	d.settle(wireTimeout)
	return d.phaseSince(sent0, answered0, seconds)
}

// openLoop sends rate queries a second for dur, evenly spaced on a fixed
// schedule whether or not answers come back, and returns how late each one
// went out, in nanoseconds. Latency is timed from when a query was due.
//
// Even spacing matters on a virtual machine. With the queries bunched into
// millisecond bursts the daemon's CPU idles most of each millisecond, the
// hypervisor stops polling for it and takes it off the host CPU, and every
// burst then pays a wake-up of 50 to 150 µs that differs from run to run.
// At the rates used here the gaps stay under the hypervisor's polling time
// and the median is the pipeline's.
func (d *driver) openLoop(rate int, dur time.Duration, rec *recorder) (phase, []float64) {
	d.closed.Store(false)
	d.rec.Store(rec)
	sent0, answered0, start := d.sent, d.answered.Load(), time.Now()
	gap := time.Second / time.Duration(rate)
	n := int(dur / gap)
	late := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * gap)
		sleepUntil(due)
		late = append(late, float64(time.Since(due).Nanoseconds()))
		d.send(int64(due.Sub(d.base)) + 1)
		if k%256 == 255 {
			d.retry()
		}
	}
	seconds := time.Since(start).Seconds()
	d.settle(wireDrainMax)
	d.rec.Store(nil)
	return d.phaseSince(sent0, answered0, seconds), late
}

// sleepUntil returns at due as exactly as it can. The Go runtime's timers
// wake through epoll, whose timeout counts in milliseconds, so time.Sleep
// would be a millisecond late: sleep in the kernel until just short of the
// instant, then spin. The spin is short because the receiving goroutine
// shares the driver's CPU.
func sleepUntil(due time.Time) {
	if wait := time.Until(due) - 30*time.Microsecond; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(due) {
	}
}

// reading is the daemons' CPU and memory, the driver's CPU and its answer
// count at one instant.
type reading struct {
	at       time.Time
	answered int64
	self     float64             // driver CPU seconds
	cpu      map[string]cpuTimes // by daemon name
	rss      map[string]float64  // VmRSS in MB, by daemon name
}

func (p *pipeline) read(d *driver) (reading, error) {
	r := reading{at: time.Now(), answered: d.answered.Load(), self: selfCPU(), cpu: map[string]cpuTimes{}, rss: map[string]float64{}}
	for _, dm := range p.daemons() {
		var err error
		if r.cpu[dm.name], err = procCPU(dm.pid()); err != nil {
			return r, err
		}
		if r.rss[dm.name], err = procStatusMB(dm.pid(), "VmRSS"); err != nil {
			return r, err
		}
	}
	return r, nil
}

// watch takes a reading every wireWindow until stop is closed, then hands
// back the readings, or none if /proc could not be read.
func (p *pipeline) watch(d *driver, stop <-chan struct{}) <-chan []reading {
	done := make(chan []reading, 1)
	go func() {
		var all []reading
		tick := time.NewTicker(wireWindow)
		defer tick.Stop()
		for {
			r, err := p.read(d)
			if err != nil {
				done <- nil
				return
			}
			all = append(all, r)
			select {
			case <-tick.C:
			case <-stop:
				done <- all
				return
			}
		}
	}()
	return done
}

// scrapeAll reads every daemon's /metrics.
func (p *pipeline) scrapeAll() (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	for _, d := range p.daemons() {
		var err error
		if out[d.name], err = d.scrape(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// settled reads every daemon's /metrics once the vantage has stopped
// observing: a query sent twice, or one the driver gave up on, may still sit
// in a socket buffer when the open loop ends.
func (p *pipeline) settled() (map[string]map[string]float64, error) {
	const observed = "vantage_observed_records_total"
	last, err := p.scrapeAll()
	for calm, tries := 0, 0; err == nil && calm < 2 && tries < 50; tries++ {
		time.Sleep(wireWindow)
		var next map[string]map[string]float64
		if next, err = p.scrapeAll(); err != nil {
			break
		}
		if next["vantage"][observed] == last["vantage"][observed] {
			calm++
		} else {
			calm = 0
		}
		last = next
	}
	return last, err
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runWire is the four wire workloads.
func runWire(ctx context.Context, e *env) (*outcome, error) {
	spec := wireSpecs[e.workload]
	out := newOutcome()
	binDir := filepath.Join(e.root, ".bench_build", "bin")
	if err := buildDaemons(ctx, e.root, binDir); err != nil {
		return nil, err
	}

	// The driver and the daemons get disjoint halves of the CPUs, so that
	// they do not take turns on one core and capacity is the pipeline's per
	// core. On one CPU nothing is pinned.
	pipeCPUs, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	if n := len(pipeCPUs); n >= 2 {
		if err := pinProcess(0, pipeCPUs[:n/2]); err != nil {
			return nil, err
		}
		pipeCPUs = pipeCPUs[n/2:]
	}

	// Set-up, several times over: daemons up and healthy, queries generated,
	// caches warm. Everything but the last is torn down again.
	var (
		pipe  *pipeline
		drv   *driver
		q     querySet
		epoch int
		round int
	)
	teardown := func() {
		if drv != nil {
			drv.close()
		}
		if pipe != nil {
			pipe.stop(0)
		}
		drv, pipe = nil, nil
	}
	defer func() { teardown() }()
	setup, err := e.medianSetup(func() error {
		teardown()
		round++
		dir := filepath.Join(e.tmp, fmt.Sprintf("pipeline-%d", round))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		var err error
		if pipe, err = startPipeline(ctx, binDir, dir, spec, e.seed, pipeCPUs); err != nil {
			return err
		}
		epoch = currentEpoch()
		if q, err = wireQueries(e.workload, e.seed, epoch); err != nil {
			return err
		}
		if drv, err = newDriver(pipe.target, spec.sources, q); err != nil {
			return err
		}
		minSends := int64(0)
		if e.workload == "resolver-hit" {
			minSends = 2 * hotNames // every hot name cached before measuring
		}
		warmUp := wireWarmUp
		if e.short {
			warmUp /= 5
		}
		warm := drv.closedLoop(warmUp, minSends)
		if warm.answered == 0 {
			return fmt.Errorf("warm-up: none of %d queries answered\n%s", warm.sent, pipe.vantage.logTail())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(drv.conns) < spec.sources {
		fmt.Fprintf(e.log, "%s: loopback aliases refused; driving from one source address\n", e.workload)
	}

	// The traced run keeps part of its time for the replay of the packets
	// through each layer's calls.
	capacityShare, latencyShare := 0.6, 0.4
	if e.tr != nil {
		capacityShare, latencyShare = 0.35, 0.3
	}
	capDur := time.Duration(e.seconds * capacityShare * float64(time.Second)).Truncate(wireWindow)
	capDur = max(capDur, (cpuWindows+2)*wireWindow)
	latDur := max(time.Duration(e.seconds*latencyShare*float64(time.Second))-wireDrain, wireWindow)

	before, err := pipe.scrapeAll()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	watched := pipe.watch(drv, stop)
	capacity := drv.closedLoop(capDur, 0)
	close(stop)
	readings := <-watched
	if len(readings) <= cpuWindows {
		return nil, fmt.Errorf("reading the daemons' /proc failed during the capacity phase")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The closed loop never sends a query twice, so what the resolver
	// forwarded is read over it alone.
	mid, err := pipe.scrapeAll()
	if err != nil {
		return nil, err
	}
	// An open loop above what the pipeline can take measures the queue, then
	// the losses. The rates are far below capacity on a quiet box; on a day
	// when the host gives this machine a fraction of its usual speed the
	// phase runs at half of what the closed loop just sustained instead.
	rate := spec.rate
	if sustained := float64(capacity.answered) / capacity.seconds; sustained < 1.25*float64(rate) {
		rate = max(int(sustained/2), 100)
		fmt.Fprintf(e.log, "%s: the closed loop sustained %.0f qps, too close to the latency phase's %d; it runs at %d qps\n",
			e.workload, sustained, spec.rate, rate)
	}
	latRec := newRecorder(rate * int(latDur/time.Second+1))
	latStart := drv.now()
	latency, late := drv.openLoop(rate, latDur, latRec)
	after, err := pipe.settled()
	if err != nil {
		return nil, err
	}
	straddled := currentEpoch() != epoch

	// Daemon memory after rssQueries answers, or at the end of a capacity
	// phase that never got that far.
	rss := readings[len(readings)-1].rss
	for _, r := range readings {
		if r.answered-readings[0].answered >= rssQueries {
			rss = r.rss
			break
		}
	}
	// The engine's view, then a graceful stop so the vantage flushes what it
	// observed. The engine's own count of matched records: the landscape's
	// matched_lookups lags it by the reorder window.
	var land struct {
		Ingest struct {
			Matched int `json:"matched"`
		} `json:"ingest"`
	}
	body, err := pipe.vantage.get("/landscape")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &land); err != nil {
		return nil, fmt.Errorf("/landscape: %w", err)
	}
	drv.close()
	pipe.stop(10 * time.Second)
	lines, size, err := countLines(pipe.observed)
	if err != nil {
		return nil, err
	}

	// Each number is taken per window and the run reports the decile on the
	// undisturbed side (see calmCost). The rate is counted per wireWindow;
	// /proc counts CPU in 10 ms ticks, so CPU per query is taken over
	// cpuWindows of them.
	var rates, cpuPerQuery, driverPerQuery []float64
	daemonPerQuery := map[string][]float64{}
	total := map[string]cpuTimes{}
	for i := 1; i < len(readings); i++ {
		a, b := readings[i-1], readings[i]
		rates = append(rates, float64(b.answered-a.answered)/b.at.Sub(a.at).Seconds())
	}
	for i := cpuWindows; i < len(readings); i += cpuWindows {
		a, b := readings[i-cpuWindows], readings[i]
		answered := float64(b.answered - a.answered)
		if answered == 0 {
			continue
		}
		var all float64
		for name := range b.cpu {
			cpu := b.cpu[name].sub(a.cpu[name])
			all += cpu.total()
			daemonPerQuery[name] = append(daemonPerQuery[name], cpu.total()*1e6/answered)
			total[name] = cpuTimes{total[name].user + cpu.user, total[name].sys + cpu.sys}
		}
		cpuPerQuery = append(cpuPerQuery, all*1e6/answered)
		driverPerQuery = append(driverPerQuery, (b.self-a.self)*1e6/answered)
	}
	if len(cpuPerQuery) == 0 {
		return nil, fmt.Errorf("no window of the capacity phase got an answer")
	}
	sort.Float64s(rates)
	capacityQPS := calmRate(rates)
	cpuUS := calmCost(cpuPerQuery)
	driverUS := calmCost(driverPerQuery)
	var p50s, p90s, all []float64
	for _, w := range latRec.windows(latStart) {
		if len(w) > 0 {
			p50s = append(p50s, quantile(w, 0.5))
			p90s = append(p90s, quantile(w, 0.9))
			all = append(all, w...)
		}
	}
	sort.Float64s(all)
	sort.Float64s(late)

	out.attempted = capacity.sent + latency.sent
	out.failed = capacity.failed + latency.failed
	out.set("setup_s", setup)
	out.set("ops_per_s", capacityQPS)
	out.set("cpu_us_per_op", cpuUS)
	out.set("rss_mb", rss["resolver"]+rss["vantage"])

	out.set("capacity_qps", capacityQPS)
	out.set("cpu_us_per_query", cpuUS)
	out.set("p50_us", calmCost(p50s))
	out.set("p90_us", calmCost(p90s))
	out.set("loadgen.capacity_min_qps", rates[0])
	out.set("loadgen.capacity_median_qps", quantile(rates, 0.5))
	out.set("loadgen.capacity_max_qps", rates[len(rates)-1])
	out.set("loadgen.cpu_us_per_query", driverUS)
	out.set("loadgen.late_p99_us", quantile(late, 0.99)/1e3)
	out.set("loadgen.p99_us", quantile(all, 0.99))
	out.set("loadgen.p999_us", quantile(all, 0.999))
	out.set("loadgen.loss_ratio", ratio(float64(latency.failed), float64(latency.sent)))
	out.set("loadgen.timeouts", float64(drv.timeouts.Load()))
	out.set("loadgen.retransmits", float64(drv.retransmits))
	for _, d := range pipe.daemons() {
		out.set(d.name+".cpu_us_per_query", calmCost(daemonPerQuery[d.name]))
		out.set(d.name+".sys_share", ratio(total[d.name].sys, total[d.name].total()))
		out.set(d.name+".rss_mb", rss[d.name])
	}
	delta := func(daemon, metric string) float64 { return after[daemon][metric] - before[daemon][metric] }
	measured := float64(capacity.sent + latency.sent)
	forwarded := ratio(mid["resolver"]["resolver_forwarded_total"]-before["resolver"]["resolver_forwarded_total"],
		mid["resolver"]["resolver_queries_total"]-before["resolver"]["resolver_queries_total"])
	matched := ratio(delta("vantage", "stream_matched_records_total"), delta("vantage", "stream_ingested_records_total"))
	observedTotal := after["vantage"]["vantage_observed_records_total"]
	checkpoints := after["vantage"]["stream_checkpoints_total"]
	if spec.resolver {
		out.set("resolver.cache_hit_ratio", ratio(delta("resolver", "dnssim_cache_hits_total"), delta("resolver", "dnssim_cache_lookups_total")))
		out.set("resolver.forwarded_per_query", forwarded)
	}
	out.set("vantage.observed_per_query", ratio(delta("vantage", "vantage_observed_records_total"), measured))
	out.set("trace.bytes_per_record", ratio(float64(size), float64(lines)))
	out.set("stream.matched_ratio", matched)
	out.set("stream.dropped_late", after["vantage"]["stream_dropped_late_total"])
	out.set("stream.checkpoints_written", checkpoints)

	fmt.Fprintf(e.log, "%s: capacity %d answered of %d in %.1fs (windows min/median/max %.0f/%.0f/%.0f qps); latency %d of %d at %d qps; -listeners %d\n",
		e.workload, capacity.answered, capacity.sent, capacity.seconds, rates[0], quantile(rates, 0.5), rates[len(rates)-1],
		latency.answered, latency.sent, rate, wireListeners)
	if driverUS > cpuUS {
		fmt.Fprintf(e.log, "%s: driver-bound: the driver spent %.2f us of CPU per query, the pipeline %.2f\n", e.workload, driverUS, cpuUS)
	}
	if first, last, n := latRec.unanswered(latStart); n > 0 {
		fmt.Fprintf(e.log, "%s: %d queries of the latency phase went unanswered, due between %.3f s and %.3f s into it\n",
			e.workload, n, first.Seconds(), last.Seconds())
	}

	// Correctness.
	out.check(drv.mismatched.Load() == 0 && drv.undecodable.Load() == 0,
		"%d responses carried the wrong question and %d did not decode", drv.mismatched.Load(), drv.undecodable.Load())
	out.check(latency.answered > 0, "the latency phase got no answers")
	out.check(float64(lines) == observedTotal, "observed.jsonl has %d lines, vantage_observed_records_total is %.0f", lines, observedTotal)
	switch e.workload {
	case "resolver-hit":
		out.check(observedTotal <= hotNames, "the vantage observed %.0f queries; the %d hot names should each reach it once", observedTotal, hotNames)
	case "chain-miss":
		out.check(forwarded >= 0.99, "resolver forwarded %.4f of its queries, want at least 0.99", forwarded)
		out.check(land.Ingest.Matched > 0, "/landscape reports no matched records: the pool is not the live engine's")
	default:
		if straddled {
			fmt.Fprintf(e.log, "%s: the run straddled 00:00 UTC, so part of it drew on yesterday's pool; the matched-ratio check is skipped\n", e.workload)
		} else {
			out.check(math.Abs(matched-0.5) <= 0.02, "stream.matched_ratio is %.4f, the mix is 0.5", matched)
		}
		out.check(land.Ingest.Matched > 0, "/landscape reports no matched records")
		if spec.checkpoint {
			out.check(checkpoints >= 1, "no checkpoint was written")
		}
	}

	if e.tr != nil {
		left := time.Duration(e.seconds*(1-capacityShare-latencyShare)*float64(time.Second)) / replayCalls
		costs, err := replayLayers(ctx, e, q, epoch, left)
		if err != nil {
			return nil, err
		}
		attributed := 0.0
		for name, ns := range costs {
			out.set(name, ns)
			attributed += ns * float64(wireCallsPerQuery[e.workload][name])
		}
		out.set("wire.unattributed_us", cpuUS-attributed/1e3)
	}
	return out, nil
}
