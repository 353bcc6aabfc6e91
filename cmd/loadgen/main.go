// Command loadgen is the wire fast path's proof harness (DESIGN.md §19): an
// open-loop loopback UDP DNS load generator that drives the
// resolver→vantage→stream-estimator pipeline at a fixed offered rate and
// reports what actually happened — achieved qps, per-query latency
// quantiles from an internal/obs histogram, loadgen-side allocations per
// query, and (when the daemons' pids are handed in) the pipeline's CPU cost
// per query expressed as qps per core.
//
// Open-loop means the send schedule never waits for responses: query i is
// due at start + i/rate whether or not query i−1 has been answered, so an
// overloaded target shows up as drops and latency inflation instead of a
// flattering self-throttled rate. Each sender socket owns its whole
// pipeline — pre-encoded query packets patched with a rotating ID, a
// 65536-slot send-timestamp table indexed by that ID, a dnswire.Arena for
// decoding responses — so the steady-state send/receive path performs no
// heap allocations and takes no locks beyond the shared histogram's
// atomics.
//
// The qps/core figure divides received responses by the CPU seconds the
// *pipeline* (resolver + vantage, via -pipeline-pids) burned while serving
// them. On a 1-core CI box wall-clock qps is bounded by everything sharing
// the core with the loadgen itself; CPU-normalised qps is the
// per-core-capacity claim the acceptance bar names.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"botmeter/internal/dga"
	"botmeter/internal/dnswire"
	"botmeter/internal/netx"
	"botmeter/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// latencyBounds is a 1-2-5 ladder from 1µs to 5s (seconds, le-style upper
// bounds) — fine enough that p50/p99 interpolation is meaningful at both
// loopback (tens of µs) and congested (ms) operating points.
var latencyBounds = []float64{
	1e-6, 2e-6, 5e-6, 10e-6, 20e-6, 50e-6, 100e-6, 200e-6, 500e-6,
	1e-3, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 100e-3, 200e-3, 500e-3,
	1, 2, 5,
}

// Summary is the machine-readable result of one run (-json).
type Summary struct {
	Target      string  `json:"target"`
	OfferedQPS  float64 `json:"offered_qps"`
	DurationSec float64 `json:"duration_sec"`
	Sockets     int     `json:"sockets"`
	Domains     int     `json:"domains"`

	Sent         uint64 `json:"sent"`
	Received     uint64 `json:"received"`
	Drops        uint64 `json:"drops"`
	Overruns     uint64 `json:"overruns"`
	Unmatched    uint64 `json:"unmatched"`
	DecodeErrors uint64 `json:"decode_errors"`

	AchievedQPS float64 `json:"achieved_qps"`
	P50Sec      float64 `json:"p50_sec"`
	P90Sec      float64 `json:"p90_sec"`
	P99Sec      float64 `json:"p99_sec"`
	MeanSec     float64 `json:"mean_sec"`

	AllocsPerQuery float64 `json:"loadgen_allocs_per_query"`
	LoadgenCPUSec  float64 `json:"loadgen_cpu_sec"`

	// Pipeline accounting, present only when -pipeline-pids was given and
	// /proc was readable.
	PipelineCPUSec  float64 `json:"pipeline_cpu_sec,omitempty"`
	QPSPerCore      float64 `json:"qps_per_core,omitempty"`
	PipelineRSSMB0  float64 `json:"pipeline_rss_mb_start,omitempty"`
	PipelineRSSMB1  float64 `json:"pipeline_rss_mb_end,omitempty"`
	PipelineRSSGrow float64 `json:"pipeline_rss_growth_mb,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	target := fs.String("target", "127.0.0.1:5301", "UDP DNS address to load (usually the resolver)")
	rate := fs.Float64("rate", 50000, "offered query rate in qps, open-loop across all sockets")
	duration := fs.Duration("duration", 5*time.Second, "send window length")
	sockets := fs.Int("sockets", 0, "sender sockets, each with its own pipeline (0 = GOMAXPROCS, capped at 8)")
	domains := fs.Int("domains", 1024, "distinct query names rotated through per socket")
	family := fs.String("family", "", "draw query names from this DGA family's pool (default: synthetic names)")
	seed := fs.Uint64("seed", 1, "with -family: pool seed")
	drain := fs.Duration("drain", time.Second, "after the send window, wait this long for in-flight responses")
	jsonPath := fs.String("json", "", "write the run summary as JSON to this file")
	benchJSON := fs.String("bench-json", "", "append a 'wire' series record for this run to the given BENCH_fig.json-style file")
	benchNote := fs.String("bench-note", "", "free-form comment stored on the -bench-json record")
	pidsFlag := fs.String("pipeline-pids", "", "comma-separated pids of the pipeline daemons; their /proc CPU and RSS deltas yield qps/core and the flat-memory check")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rate <= 0 {
		return fmt.Errorf("-rate must be positive (open-loop needs a schedule)")
	}
	if *domains < 1 {
		return fmt.Errorf("-domains must be at least 1")
	}
	nsock := netx.SocketCount(*sockets)
	names, err := buildDomains(*domains, *family, *seed)
	if err != nil {
		return err
	}

	pids, err := parsePids(*pidsFlag)
	if err != nil {
		return err
	}

	hist := obs.NewRegistry().Histogram("loadgen_query_seconds", latencyBounds)
	workers := make([]*worker, nsock)
	for i := range workers {
		w, err := newWorker(*target, names, hist)
		if err != nil {
			for _, prev := range workers[:i] {
				prev.conn.Close()
			}
			return err
		}
		workers[i] = w
	}

	cpu0 := pipelineCPU(pids)
	rss0 := pipelineRSS(pids)
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	selfCPU0 := selfCPU()
	start := time.Now()
	deadline := start.Add(*duration)

	var wg sync.WaitGroup
	// interval is the per-worker send period: worker w owns every nsock-th
	// slot of the global open-loop schedule.
	interval := float64(time.Second) * float64(nsock) / *rate
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			w.sendLoop(start.Add(time.Duration(float64(i)*float64(time.Second) / *rate)), deadline, interval)
		}(i, w)
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.recvLoop()
		}(w)
	}

	// Senders stop at the deadline on their own; then the drain window lets
	// in-flight responses land before the sockets close under the receivers.
	time.Sleep(time.Until(deadline) + *drain)
	wall := time.Since(start) - *drain
	for _, w := range workers {
		w.conn.Close()
	}
	wg.Wait()

	selfCPU1 := selfCPU()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	cpu1 := pipelineCPU(pids)
	rss1 := pipelineRSS(pids)

	sum := Summary{
		Target:      *target,
		OfferedQPS:  *rate,
		DurationSec: wall.Seconds(),
		Sockets:     nsock,
		Domains:     len(names),
	}
	for _, w := range workers {
		sum.Sent += w.sent
		sum.Received += w.received
		sum.Overruns += w.overruns
		sum.Unmatched += w.unmatched
		sum.DecodeErrors += w.decodeErrs
	}
	sum.Drops = sum.Sent - sum.Received
	sum.AchievedQPS = float64(sum.Received) / wall.Seconds()
	sum.P50Sec = quantile(hist, 0.50)
	sum.P90Sec = quantile(hist, 0.90)
	sum.P99Sec = quantile(hist, 0.99)
	if n := hist.Count(); n > 0 {
		sum.MeanSec = hist.Sum() / float64(n)
	}
	if sum.Sent > 0 {
		sum.AllocsPerQuery = float64(m1.Mallocs-m0.Mallocs) / float64(sum.Sent)
	}
	sum.LoadgenCPUSec = selfCPU1 - selfCPU0
	if cpu0 >= 0 && cpu1 >= 0 {
		sum.PipelineCPUSec = cpu1 - cpu0
		if sum.PipelineCPUSec > 0 {
			sum.QPSPerCore = float64(sum.Received) / sum.PipelineCPUSec
		}
		sum.PipelineRSSMB0 = rss0
		sum.PipelineRSSMB1 = rss1
		sum.PipelineRSSGrow = rss1 - rss0
	}

	printSummary(stdout, &sum)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(&sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *benchJSON != "" {
		if err := appendWireRecord(*benchJSON, &sum, wall, m1.Mallocs-m0.Mallocs,
			float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), *benchNote); err != nil {
			return err
		}
	}
	return nil
}

// buildDomains produces the query-name rotation. With a family it draws the
// first n names of the family's epoch-0 pool (cycling when the pool is
// smaller), so the vantage's live estimator sees genuine AGDs; otherwise the
// names are synthetic, already lowercase, and collision-free.
func buildDomains(n int, family string, seed uint64) ([]string, error) {
	if family == "" {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("q%07d.wire.loadtest.example", i)
		}
		return names, nil
	}
	spec, ok := dga.Families()[family]
	if !ok {
		return nil, fmt.Errorf("unknown family %q (have %s)", family, strings.Join(dga.FamilyNames(), ", "))
	}
	pool := spec.Pool.PoolFor(seed, 0)
	if len(pool.Domains) == 0 {
		return nil, fmt.Errorf("family %q produced an empty pool", family)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = pool.Domains[i%len(pool.Domains)]
	}
	return names, nil
}

// worker is one sender socket's private pipeline. The sender goroutine owns
// sent/overruns and the packet buffers; the receiver goroutine owns
// received/unmatched/decodeErrs, the read buffer and the arena; the
// send-timestamp slots are the only shared state (atomics, indexed by the
// 16-bit DNS ID that travels with the packet).
type worker struct {
	conn  *net.UDPConn
	pkts  [][]byte
	slots []atomic.Int64 // 1<<16 send-time nanos, 0 = empty
	hist  *obs.Histogram

	sent     uint64 // sender-owned
	overruns uint64

	received   uint64 // receiver-owned
	unmatched  uint64
	decodeErrs uint64
	rbuf       []byte
	arena      dnswire.Arena
	msg        dnswire.Message
}

func newWorker(target string, names []string, hist *obs.Histogram) (*worker, error) {
	// A connected socket: Write/Read with no per-packet address handling,
	// and the kernel filters responses to this 5-tuple.
	conn, err := net.Dial("udp", target)
	if err != nil {
		return nil, err
	}
	uconn, ok := conn.(*net.UDPConn)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("target %s did not yield a UDP socket", target)
	}
	w := &worker{
		conn:  uconn,
		pkts:  make([][]byte, len(names)),
		slots: make([]atomic.Int64, 1<<16),
		hist:  hist,
		rbuf:  make([]byte, 65535),
	}
	// Pre-encode every query once; the send loop only patches the ID bytes
	// in place. Each worker gets private copies because of that patching.
	for i, name := range names {
		pkt, err := dnswire.NewQuery(0, name).Encode()
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("encoding query for %q: %w", name, err)
		}
		w.pkts[i] = pkt
	}
	return w, nil
}

// sendLoop walks the worker's slice of the open-loop schedule: query k is
// due at start + k*interval, and a late schedule is caught up by sending
// back-to-back rather than by rescheduling — the offered load is fixed.
func (w *worker) sendLoop(start, deadline time.Time, interval float64) {
	seq := 0
	for {
		next := start.Add(time.Duration(float64(seq) * interval))
		if next.After(deadline) {
			return
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		pkt := w.pkts[seq%len(w.pkts)]
		id := uint16(seq)
		pkt[0] = byte(id >> 8)
		pkt[1] = byte(id)
		// Claim the ID slot before the write so the response can never
		// outrun its timestamp. A displaced older timestamp is an overrun:
		// the query 65536 sends ago never got an answer.
		if prev := w.slots[id].Swap(time.Now().UnixNano()); prev != 0 {
			w.overruns++
		}
		if _, err := w.conn.Write(pkt); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient send failure (e.g. ECONNREFUSED bounce on loopback):
			// the slot stays armed and ages into a drop.
		}
		w.sent++
		seq++
	}
}

// recvLoop matches responses back to their send timestamps and feeds the
// latency histogram. It exits when the socket closes under it.
func (w *worker) recvLoop() {
	for {
		n, err := w.conn.Read(w.rbuf)
		if err != nil {
			return // closed (shutdown) or fatal; either way the run is over
		}
		now := time.Now().UnixNano()
		if err := dnswire.DecodeInto(w.rbuf[:n], &w.msg, &w.arena); err != nil || !w.msg.Header.QR {
			w.decodeErrs++
			continue
		}
		t0 := w.slots[w.msg.Header.ID].Swap(0)
		if t0 == 0 {
			// Duplicate answer, or one so late its slot was overrun.
			w.unmatched++
			continue
		}
		w.received++
		w.hist.Observe(float64(now-t0) / 1e9)
	}
}

// quantile interpolates the q-quantile (0..1) from the histogram's
// per-bucket counts, linearly within the containing bucket. The +Inf bucket
// reports the last finite bound.
func quantile(h *obs.Histogram, q float64) float64 {
	bounds, counts := h.Buckets()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		frac := (rank - prev) / float64(c)
		return lo + (bounds[i]-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// parsePids parses the -pipeline-pids list.
func parsePids(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var pids []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		pid, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("-pipeline-pids: %q is not a pid", part)
		}
		pids = append(pids, pid)
	}
	return pids, nil
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6 +
		float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
}

// clockTick is the Linux USER_HZ for /proc/<pid>/stat utime/stime. The
// kernel ABI has pinned this at 100 for every architecture Go runs on; a
// wrong value would scale qps/core, not break it.
const clockTick = 100

// pipelineCPU sums user+system CPU seconds across pids from /proc. Returns
// -1 when no pids were given or /proc is unreadable (non-Linux), so callers
// can distinguish "no accounting" from "zero CPU".
func pipelineCPU(pids []int) float64 {
	if len(pids) == 0 {
		return -1
	}
	var total float64
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return -1
		}
		// Fields after the parenthesised comm (which may itself contain
		// spaces): state is field 0 of the remainder, utime 11, stime 12.
		i := strings.LastIndexByte(string(data), ')')
		if i < 0 {
			return -1
		}
		fields := strings.Fields(string(data[i+1:]))
		if len(fields) < 13 {
			return -1
		}
		ut, err1 := strconv.ParseUint(fields[11], 10, 64)
		st, err2 := strconv.ParseUint(fields[12], 10, 64)
		if err1 != nil || err2 != nil {
			return -1
		}
		total += float64(ut+st) / clockTick
	}
	return total
}

// pipelineRSS sums resident set sizes (MB) across pids from /proc, -1 when
// unavailable.
func pipelineRSS(pids []int) float64 {
	if len(pids) == 0 {
		return -1
	}
	var totalKB float64
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return -1
		}
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "VmRSS:") {
				continue
			}
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					totalKB += kb
				}
			}
			break
		}
	}
	return totalKB / 1024
}

func printSummary(w io.Writer, s *Summary) {
	fmt.Fprintf(w, "loadgen: target=%s offered=%.0f qps duration=%.2fs sockets=%d domains=%d\n",
		s.Target, s.OfferedQPS, s.DurationSec, s.Sockets, s.Domains)
	fmt.Fprintf(w, "  sent=%d received=%d drops=%d overruns=%d unmatched=%d decode_errors=%d\n",
		s.Sent, s.Received, s.Drops, s.Overruns, s.Unmatched, s.DecodeErrors)
	fmt.Fprintf(w, "  achieved=%.0f qps  p50=%s p90=%s p99=%s mean=%s\n",
		s.AchievedQPS, fmtDur(s.P50Sec), fmtDur(s.P90Sec), fmtDur(s.P99Sec), fmtDur(s.MeanSec))
	fmt.Fprintf(w, "  loadgen: cpu=%.2fs allocs/query=%.3f\n", s.LoadgenCPUSec, s.AllocsPerQuery)
	if s.PipelineCPUSec != 0 || s.QPSPerCore != 0 {
		fmt.Fprintf(w, "  pipeline: cpu=%.2fs qps/core=%.0f rss=%.1f→%.1f MB (Δ%+.1f)\n",
			s.PipelineCPUSec, s.QPSPerCore, s.PipelineRSSMB0, s.PipelineRSSMB1, s.PipelineRSSGrow)
	}
}

func fmtDur(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}

// wireRecord mirrors cmd/benchgen's BenchRecord schema so loadgen runs land
// in the same BENCH_fig.json trajectory as a new "wire" artifact series:
// one trial = one answered query, ns_per_trial = wall nanoseconds per
// answered query, allocs_per_trial = loadgen-side allocations per query.
type wireRecord struct {
	Artifact       string  `json:"artifact"`
	Workers        int     `json:"workers"`
	ResolvedW      int     `json:"resolved_workers"`
	CPUs           int     `json:"cpus"`
	GoVersion      string  `json:"go_version"`
	Trials         uint64  `json:"trials"`
	WallNS         int64   `json:"wall_ns"`
	NSPerTrial     int64   `json:"ns_per_trial"`
	AllocsPerTrial uint64  `json:"allocs_per_trial"`
	AllocMB        float64 `json:"alloc_mb"`
	RecordedAt     string  `json:"recorded_at"`
	Comment        string  `json:"comment,omitempty"`
}

func appendWireRecord(path string, s *Summary, wall time.Duration, mallocs uint64, allocMB float64, note string) error {
	comment := fmt.Sprintf("open-loop %.0f qps offered, %.0f achieved; p50=%s p99=%s; drops=%d",
		s.OfferedQPS, s.AchievedQPS, fmtDur(s.P50Sec), fmtDur(s.P99Sec), s.Drops)
	if s.QPSPerCore > 0 {
		comment += fmt.Sprintf("; pipeline %.0f qps/core, rss %+.1f MB", s.QPSPerCore, s.PipelineRSSGrow)
	}
	if note != "" {
		comment += "; " + note
	}
	rec := wireRecord{
		Artifact:   "wire",
		Workers:    s.Sockets,
		ResolvedW:  s.Sockets,
		CPUs:       runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Trials:     s.Received,
		WallNS:     wall.Nanoseconds(),
		AllocMB:    allocMB,
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		Comment:    comment,
	}
	if s.Received > 0 {
		rec.NSPerTrial = wall.Nanoseconds() / int64(s.Received)
		rec.AllocsPerTrial = mallocs / s.Received
	}
	var records []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &records); err != nil {
			return fmt.Errorf("bench-json %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	out, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	records = append(records, out)
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
