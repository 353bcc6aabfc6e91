package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/dnswire"
	"botmeter/internal/obs/obstest"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// asVantage, as the test binary's first argument, makes it run the daemon
// with the remaining arguments instead of the tests: the crash tests need a
// real process for an injected crash (exit status 137) to kill.
const asVantage = "-as-vantage"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asVantage {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := run(ctx, os.Args[2:], os.Stderr)
		stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vantage:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freeAddr reserves an ephemeral localhost port of the given network and
// returns it as host:port. The listener is closed before returning, so
// there is a tiny reuse window — fine for tests.
func freeAddr(t *testing.T, network string) string {
	t.Helper()
	switch network {
	case "udp":
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback UDP unavailable: %v", err)
		}
		defer conn.Close()
		return conn.LocalAddr().String()
	default:
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
}

// waitHealthz polls the diagnostics endpoint until it answers.
func waitHealthz(t *testing.T, obsAddr string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + obsAddr + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return string(body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("vantage never became healthy")
	return ""
}

// queryVantage sends one DNS query over UDP and waits for the answer, so
// the observation is known to have entered the sink before returning.
func queryVantage(t *testing.T, dnsAddr, domain string, id uint16) {
	t.Helper()
	client, err := net.Dial("udp", dnsAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wire, err := dnswire.NewQuery(id, domain).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(wire); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	if _, err := client.Read(buf); err != nil {
		t.Fatalf("no response for %s: %v", domain, err)
	}
}

// TestRunLiveCheckpointLifecycle drives the full daemon through run():
// serve real UDP DNS with live estimation and checkpointing, stop it, then
// restart over the same state and verify /healthz reports the recovery.
func TestRunLiveCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	obsPath := filepath.Join(dir, "obs.jsonl")
	ckDir := filepath.Join(dir, "ckpt")
	logf, err := os.Create(filepath.Join(dir, "vantage.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	dnsAddr := freeAddr(t, "udp")
	obsAddr := freeAddr(t, "tcp")
	args := []string{
		"-listen", dnsAddr,
		"-observed", obsPath,
		"-flush-interval", "20ms", "-flush-every", "1",
		"-live-estimate", "newgoz", "-live-seed", "7",
		"-checkpoint-dir", ckDir, "-checkpoint-every", "3",
		"-obs-addr", obsAddr,
		// A -crash spec that never fires still arms the injector, which
		// makes checkpoint writes synchronous — deterministic for the
		// generation assertions below.
		"-crash", "records=1000000",
		"-log-level", "error",
	}
	boot := func() (context.CancelFunc, chan error) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- run(ctx, args, logf) }()
		waitHealthz(t, obsAddr)
		return cancel, done
	}

	cancel, done := boot()
	for i := 0; i < 10; i++ {
		queryVantage(t, dnsAddr, fmt.Sprintf("bot-%d.example.com", i), uint16(100+i))
	}
	// 10 durable records at an every-3 cadence: at least one generation.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if gens, _ := filepath.Glob(filepath.Join(ckDir, "checkpoint-*.ckpt")); len(gens) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint generation appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := http.Get("http://" + obsAddr + "/landscape")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/landscape: %v, %v", resp, err)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first run: %v", err)
	}

	// Restart over the same observed dataset and checkpoint directory: the
	// daemon must restore the newest generation and say so on /healthz.
	cancel, done = boot()
	body := waitHealthz(t, obsAddr)
	if !strings.Contains(body, "recovered from checkpoint generation") {
		t.Errorf("recovery status missing from /healthz: %q", body)
	}
	queryVantage(t, dnsAddr, "bot-after-restart.example.com", 999)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// TestRunStaleCheckpointStartsFresh: a checkpoint that claims more durable
// bytes than the observed dataset holds (rotated or truncated capture) must
// be ignored rather than resumed past the end of the file.
func TestRunStaleCheckpointStartsFresh(t *testing.T) {
	dir := t.TempDir()
	obsPath := filepath.Join(dir, "obs.jsonl")
	ckDir := filepath.Join(dir, "ckpt")
	logf, err := os.Create(filepath.Join(dir, "vantage.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	dnsAddr := freeAddr(t, "udp")
	obsAddr := freeAddr(t, "tcp")
	args := []string{
		"-listen", dnsAddr,
		"-observed", obsPath,
		"-flush-interval", "20ms", "-flush-every", "1",
		"-live-estimate", "newgoz", "-live-seed", "7",
		"-checkpoint-dir", ckDir, "-checkpoint-every", "2",
		"-obs-addr", obsAddr,
		"-log-level", "error",
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, logf) }()
	waitHealthz(t, obsAddr)
	for i := 0; i < 6; i++ {
		queryVantage(t, dnsAddr, fmt.Sprintf("stale-%d.example.com", i), uint16(200+i))
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first run: %v", err)
	}

	// Simulate a rotation: the dataset restarts empty while the checkpoint
	// still references the old bytes.
	if err := os.WriteFile(obsPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	go func() { done <- run(ctx, args, logf) }()
	body := waitHealthz(t, obsAddr)
	if strings.Contains(body, "recovered from checkpoint generation") {
		t.Error("stale checkpoint was restored over a truncated dataset")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// TestRunFlagValidation covers the fail-fast paths of run().
func TestRunFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"bad flag":                {"-no-such-flag"},
		"bad log level":           {"-log-level", "loud"},
		"bad log format":          {"-log-format", "yaml"},
		"bad chaos spec":          {"-chaos", "loss=oops"},
		"bad crash spec":          {"-crash", "sometimes"},
		"checkpoint without live": {"-checkpoint-dir", t.TempDir()},
		"unknown live family":     {"-live-estimate", "no-such-family"},
		"missing zone file":       {"-zone", filepath.Join(t.TempDir(), "nope.txt")},
		"unwritable observed dir": {"-observed", filepath.Join(t.TempDir(), "missing-dir", "obs.jsonl")},
		// The last two get a scratch -observed so the failing stage is the
		// listener, not a stray capture file in the working directory.
		"malformed listen address": {
			"-observed", filepath.Join(t.TempDir(), "obs.jsonl"),
			"-listen", "127.0.0.1:notaport",
		},
		"malformed diagnostic address": {
			"-observed", filepath.Join(t.TempDir(), "obs.jsonl"),
			"-live-estimate", "newgoz", "-obs-addr", "127.0.0.1:notaport",
		},
	}
	for name, args := range cases {
		if err := run(context.Background(), args, os.Stderr); err == nil {
			t.Errorf("%s: run(%v) should fail", name, args)
		}
	}
}

// vantageProc is a vantage daemon running as a child process.
type vantageProc struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process is gone
	err    error         // its Wait error, valid after exited
}

func startVantage(t *testing.T, logPath string, args ...string) *vantageProc {
	t.Helper()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	p := &vantageProc{cmd: exec.Command(os.Args[0], append([]string{asVantage}, args...)...), exited: make(chan struct{})}
	p.cmd.Stderr = logf
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.exited
	})
	return p
}

// exitCode waits for the process and returns its exit status.
func (p *vantageProc) exitCode(t *testing.T) int {
	t.Helper()
	select {
	case <-p.exited:
	case <-time.After(60 * time.Second):
		t.Fatal("vantage did not exit")
	}
	var ee *exec.ExitError
	if errors.As(p.err, &ee) {
		return ee.ExitCode()
	}
	if p.err != nil {
		t.Fatalf("waiting for vantage: %v", p.err)
	}
	return 0
}

// driveSources plays one forwarding server per source address against the
// vantage, each on its own socket and goroutine, query after answer, until
// its names run out or the vantage is gone. Loopback source addresses other
// than 127.0.0.1 need no set-up on Linux; elsewhere the test is skipped.
func driveSources(t *testing.T, dnsAddr string, names [][]string, gone <-chan struct{}) {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", dnsAddr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, mine := range names {
		conn, err := net.DialUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, byte(i+1))}, raddr)
		if err != nil {
			t.Skipf("cannot send from 127.0.0.%d: %v", i+1, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			buf := make([]byte, 4096)
			for q, name := range mine {
				wire, err := dnswire.NewQuery(uint16(q+1), name).Encode()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := conn.Write(wire); err != nil {
					return // ICMP port unreachable: the vantage is gone
				}
				conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
				if _, err := conn.Read(buf); err != nil {
					select {
					case <-gone:
						return
					default: // a dropped datagram; move on like a stub resolver
					}
				}
			}
		}()
	}
	wg.Wait()
}

// batchLandscape charts the dataset the way cmd/botmeter does.
func batchLandscape(t *testing.T, spec dga.Spec, seed uint64, dataset string) []byte {
	t.Helper()
	data, err := os.ReadFile(dataset)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := trace.ReadObserved(bytes.NewReader(data), trace.ReadOptions{})
	if err != nil {
		t.Fatalf("surviving dataset: %v", err)
	}
	recs.Sort()
	bm, err := core.New(core.Config{Family: spec, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	land, err := bm.Analyze(recs, sim.Window{
		Start: (recs[0].T / sim.Day) * sim.Day,
		End:   (recs[len(recs)-1].T/sim.Day + 1) * sim.Day,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := land.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// landscapeFields parses a landscape document, number literals kept as
// written, without the stream-only ingest block.
func landscapeFields(t *testing.T, doc []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var fields map[string]any
	if err := dec.Decode(&fields); err != nil {
		t.Fatalf("landscape: %v\n%s", err, doc)
	}
	delete(fields, "ingest")
	return fields
}

// TestCrashResume is the kill–resume contract on the serve loop itself
// (DESIGN.md §15): four forwarding servers query a vantage that checkpoints
// across its socket workers until an injected crash kills it — mid-way
// through writing a checkpoint, or after an exact number of records. The
// restarted vantage must chart exactly what a batch analysis of the surviving
// dataset charts, and every checkpoint generation, before and after, must be
// stamped with the dataset's line count at its cut.
func TestCrashResume(t *testing.T) {
	const seed = 7
	spec, err := dga.Lookup("newgoz")
	if err != nil {
		t.Fatal(err)
	}
	// Each source alternates today's pool with benign names, as at a border.
	pool := spec.Pool.PoolFor(seed, int(time.Now().UnixMilli()/int64(sim.Day))).Domains
	names := make([][]string, 4)
	for i := range names {
		for q := 0; q < 300; q++ {
			names[i] = append(names[i], pool[(q*len(names)+i)%len(pool)], fmt.Sprintf("benign-%d-%d.example", i, q))
		}
	}
	for _, listeners := range []int{1, 4} {
		for _, crash := range []string{"point=checkpoint-write:2", "records=777"} {
			t.Run(fmt.Sprintf("listeners=%d/%s", listeners, crash), func(t *testing.T) {
				dir := t.TempDir()
				dataset := filepath.Join(dir, "observed.jsonl")
				ckDir := filepath.Join(dir, "ckpt")
				logPath := filepath.Join(dir, "vantage.log")
				dnsAddr, obsAddr := freeAddr(t, "udp"), freeAddr(t, "tcp")
				args := []string{
					"-listen", dnsAddr, "-obs-addr", obsAddr, "-observed", dataset,
					"-flush-interval", "20ms", "-flush-every", "16",
					"-live-estimate", "newgoz", "-live-seed", fmt.Sprint(seed),
					"-listeners", fmt.Sprint(listeners),
					"-checkpoint-dir", ckDir, "-checkpoint-every", "200", "-checkpoint-interval", "0",
					"-log-level", "warn",
				}
				logTail := func() string {
					data, _ := os.ReadFile(logPath)
					return string(data)
				}

				doomed := startVantage(t, logPath, append(args, "-crash", crash)...)
				waitHealthz(t, obsAddr)
				driveSources(t, dnsAddr, names, doomed.exited)
				if code := doomed.exitCode(t); code != 137 {
					t.Fatalf("vantage exited %d, want the injected crash's 137\n%s", code, logTail())
				}
				if cuts := checkCuts(t, ckDir, dataset); len(cuts) == 0 {
					t.Fatal("no checkpoint generation survived the crash")
				}

				resumed := startVantage(t, logPath, args...)
				if body := waitHealthz(t, obsAddr); !strings.Contains(body, "recovered from checkpoint generation") {
					t.Fatalf("recovery status missing from /healthz: %q\n%s", body, logTail())
				}
				resp, err := http.Get("http://" + obsAddr + "/landscape")
				if err != nil {
					t.Fatal(err)
				}
				live, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("/landscape: %d, %v", resp.StatusCode, err)
				}
				batch := batchLandscape(t, spec, seed, dataset)
				want, got := landscapeFields(t, batch), landscapeFields(t, live)
				if servers, _ := want["servers"].([]any); len(servers) != len(names) {
					t.Fatalf("batch charts %d servers, %d sent matching names\n%s", len(servers), len(names), batch)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("recovered /landscape differs from the batch analysis of the surviving dataset\nlive:  %s\nbatch: %s", live, batch)
				}

				// Traffic after recovery, then a clean stop: the cuts taken on
				// the way and the final one obey the same invariant.
				driveSources(t, dnsAddr, names, resumed.exited)
				if err := resumed.cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
				if code := resumed.exitCode(t); code != 0 {
					t.Fatalf("clean stop exited %d\n%s", code, logTail())
				}
				cuts := checkCuts(t, ckDir, dataset)
				data, err := os.ReadFile(dataset)
				if err != nil {
					t.Fatal(err)
				}
				if total := uint64(bytes.Count(data, []byte{'\n'})); len(cuts) == 0 || cuts[len(cuts)-1] != total {
					t.Fatalf("final checkpoint cut at %v, the dataset has %d records", cuts, total)
				}
			})
		}
	}
}

// TestResolveListeners: -listeners 3 opens three sockets, and -listeners 0
// opens one per CPU capped at 8 (one socket where SO_REUSEPORT is refused).
func TestResolveListeners(t *testing.T) {
	for _, tc := range []struct {
		flag string
		want int
	}{
		{"3", 3},
		{"0", min(runtime.GOMAXPROCS(0), 8)},
	} {
		dir := t.TempDir()
		logPath := filepath.Join(dir, "vantage.log")
		logf, err := os.Create(logPath)
		if err != nil {
			t.Fatal(err)
		}
		obsAddr := freeAddr(t, "tcp")
		args := []string{
			"-listen", "127.0.0.1:0",
			"-listeners", tc.flag,
			"-observed", filepath.Join(dir, "obs.jsonl"),
			"-obs-addr", obsAddr,
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- run(ctx, args, logf) }()
		waitHealthz(t, obsAddr)
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("-listeners %s: run: %v", tc.flag, err)
		}
		logf.Close()
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		log := string(data)
		want := tc.want
		if strings.Contains(log, "reuseport=false") {
			want = 1
		}
		if !strings.Contains(log, fmt.Sprintf(" listeners=%d ", want)) {
			t.Fatalf("-listeners %s: want %d sockets, log:\n%s", tc.flag, want, log)
		}
	}
}

// scrape reads /metrics, checks it against the exposition format and
// returns its inventory.
func scrape(t *testing.T, obsAddr string) []string {
	t.Helper()
	resp, err := http.Get("http://" + obsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidatePrometheusText(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	inv, err := obstest.Inventory(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

// TestMetricInventory pins every series a live-estimating, checkpointing
// vantage exports: family, TYPE and label set.
// The list was taken before the daemon's counts became callbacks over their
// owners' tallies; how a series is fed must not rename, retype or relabel it.
func TestMetricInventory(t *testing.T) {
	dir := t.TempDir()
	logf, err := os.Create(filepath.Join(dir, "vantage.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	dnsAddr := freeAddr(t, "udp")
	obsAddr := freeAddr(t, "tcp")
	args := []string{
		"-listen", dnsAddr,
		"-observed", filepath.Join(dir, "obs.jsonl"),
		"-flush-interval", "20ms", "-flush-every", "1",
		"-live-estimate", "newgoz", "-live-seed", "7",
		"-checkpoint-dir", filepath.Join(dir, "ckpt"), "-checkpoint-every", "2",
		"-obs-addr", obsAddr,
		"-log-level", "error",
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, logf) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}()
	waitHealthz(t, obsAddr)
	for i := 0; i < 4; i++ {
		queryVantage(t, dnsAddr, fmt.Sprintf("inv-%d.example.com", i), uint16(300+i))
	}
	want := []string{
		`dga_pools_built_total counter {}`,
		`dga_pools_live gauge {}`,
		`landscape_disagreement gauge {}`,
		`landscape_servers gauge {}`,
		`landscape_total gauge {}`,
		`landscape_total_delta gauge {}`,
		`stream_checkpoint_age_seconds gauge {}`,
		`stream_checkpoint_bytes gauge {}`,
		`stream_checkpoint_duration_ms gauge {}`,
		`stream_checkpoint_errors_total counter {}`,
		`stream_checkpoint_generation gauge {}`,
		`stream_checkpoint_last_unix_ms gauge {}`,
		`stream_checkpoint_skipped_total counter {}`,
		`stream_checkpoints_total counter {}`,
		`stream_dropped_late_total counter {}`,
		`stream_epoch_close_seconds histogram {}`,
		`stream_epochs_closed_total counter {}`,
		`stream_expiry_queue gauge {shard="*"}`,
		`stream_ingested_records_total counter {}`,
		`stream_loss_rate gauge {}`,
		`stream_matched_records_total counter {}`,
		`stream_open_cells gauge {shard="*"}`,
		`stream_records_per_second gauge {}`,
		`stream_reorder_depth gauge {shard="*"}`,
		`stream_reorder_evictions_total counter {}`,
		`stream_retained_records gauge {}`,
		`stream_snapshots_total counter {}`,
		`stream_source_rotations_total counter {}`,
		`stream_unmatched_records_total counter {}`,
		`stream_watermark_lag_seconds gauge {shard="*"}`,
		`stream_watermark_ms gauge {shard="*"}`,
		`vantage_engine_observe_errors_total counter {}`,
		`vantage_observed_records_total counter {}`,
		`vantage_observed_sticky_error gauge {}`,
		`vantage_observed_write_errors_total counter {}`,
		`vantage_queries_total counter {}`,
		`vantage_send_errors_total counter {}`,
		`vantage_zone_domains gauge {}`,
	}
	if got := scrape(t, obsAddr); !reflect.DeepEqual(got, want) {
		t.Errorf("/metrics inventory:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
