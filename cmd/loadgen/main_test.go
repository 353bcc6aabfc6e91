package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"botmeter/internal/dnswire"
	"botmeter/internal/obs"
)

// echoDNS answers every valid query with a positive A response on a
// loopback socket, standing in for the resolver as the load target.
func echoDNS(t *testing.T) (addr string, stop func()) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 65535)
		ip := net.ParseIP("192.0.2.7")
		for {
			n, from, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			msg, err := dnswire.Decode(buf[:n])
			if err != nil || msg.Header.QR || len(msg.Questions) == 0 {
				continue
			}
			resp, err := dnswire.NewResponse(msg, ip, 60).Encode()
			if err != nil {
				continue
			}
			conn.WriteTo(resp, from) //nolint:errcheck
		}
	}()
	return conn.LocalAddr().String(), func() {
		conn.Close()
		<-done
	}
}

// TestLoadgenAgainstEcho runs the full loadgen loop against a loopback
// echo server: every query must come back (zero drops, zero decode
// errors), the summary JSON must land, and the bench record must join the
// trajectory file as a "wire" artifact.
func TestLoadgenAgainstEcho(t *testing.T) {
	addr, stop := echoDNS(t)
	defer stop()
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "summary.json")
	benchPath := filepath.Join(dir, "bench.json")

	var out strings.Builder
	err := run([]string{
		"-target", addr,
		"-rate", "2000",
		"-duration", "300ms",
		"-drain", "300ms",
		"-sockets", "2",
		"-domains", "32",
		"-json", jsonPath,
		"-bench-json", benchPath,
		"-bench-note", "unit test",
		"-pipeline-pids", strconv.Itoa(os.Getpid()),
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Sent == 0 {
		t.Fatal("no queries sent")
	}
	if sum.Drops != 0 || sum.Received != sum.Sent {
		t.Fatalf("loopback echo dropped queries: sent=%d received=%d drops=%d",
			sum.Sent, sum.Received, sum.Drops)
	}
	if sum.DecodeErrors != 0 {
		t.Fatalf("decode errors on echo responses: %d", sum.DecodeErrors)
	}
	if sum.P50Sec <= 0 || sum.P99Sec < sum.P50Sec {
		t.Fatalf("implausible quantiles: p50=%v p99=%v", sum.P50Sec, sum.P99Sec)
	}
	if sum.AchievedQPS <= 0 {
		t.Fatalf("achieved qps not reported: %+v", sum)
	}
	if runtime.GOOS == "linux" && sum.PipelineCPUSec < 0 {
		t.Fatalf("pipeline CPU accounting missing on linux: %+v", sum)
	}
	if !strings.Contains(out.String(), "achieved=") {
		t.Fatalf("human summary missing:\n%s", out.String())
	}

	bench, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var recs []wireRecord
	if err := json.Unmarshal(bench, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Artifact != "wire" {
		t.Fatalf("bench record not appended as wire series: %+v", recs)
	}
	if recs[0].Trials != sum.Received {
		t.Fatalf("bench trials %d != received %d", recs[0].Trials, sum.Received)
	}
	if !strings.Contains(recs[0].Comment, "unit test") {
		t.Fatalf("bench note lost: %q", recs[0].Comment)
	}
}

// TestLoadgenBenchAppendPreservesHistory verifies appends extend an
// existing trajectory file rather than rewriting it.
func TestLoadgenBenchAppendPreservesHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`[{"artifact":"fig6a","trials":1}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := &Summary{OfferedQPS: 1000, AchievedQPS: 990, Received: 99, Sockets: 2}
	if err := appendWireRecord(path, sum, time.Second, 12, 0.5, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []wireRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Artifact != "fig6a" || recs[1].Artifact != "wire" {
		t.Fatalf("history not preserved: %+v", recs)
	}
	if recs[1].NSPerTrial != time.Second.Nanoseconds()/99 {
		t.Fatalf("ns_per_trial wrong: %d", recs[1].NSPerTrial)
	}
}

// TestQuantileInterpolation pins the bucket-interpolation math on a
// hand-checkable distribution.
func TestQuantileInterpolation(t *testing.T) {
	h := obs.NewRegistry().Histogram("q", []float64{1, 2, 4})
	// 10 samples in (0,1], 10 in (1,2]: the median sits exactly at the
	// bucket boundary, p25 at the midpoint of the first bucket.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	if got := quantile(h, 0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := quantile(h, 0.25); got != 0.5 {
		t.Fatalf("p25 = %v, want 0.5", got)
	}
	if got := quantile(h, 1.0); got != 2 {
		t.Fatalf("p100 = %v, want 2", got)
	}
	// All mass in +Inf: report the last finite bound rather than inventing
	// a value.
	inf := obs.NewRegistry().Histogram("inf", []float64{1, 2, 4})
	inf.Observe(100)
	if got := quantile(inf, 0.5); got != 4 {
		t.Fatalf("+Inf bucket p50 = %v, want 4", got)
	}
	empty := obs.NewRegistry().Histogram("e", []float64{1})
	if got := quantile(empty, 0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
}

// TestBuildDomains covers both name sources.
func TestBuildDomains(t *testing.T) {
	syn, err := buildDomains(3, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(syn) != 3 || syn[0] == syn[1] {
		t.Fatalf("synthetic names wrong: %v", syn)
	}
	for _, d := range syn {
		if strings.ToLower(d) != d {
			t.Fatalf("synthetic name not canonical lowercase: %q", d)
		}
	}
	agd, err := buildDomains(5, "newgoz", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(agd) != 5 {
		t.Fatalf("agd names wrong: %v", agd)
	}
	if _, err := buildDomains(1, "no-such-family", 1); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestParsePids covers the flag parser's error surface.
func TestParsePids(t *testing.T) {
	pids, err := parsePids(" 12, 34 ,")
	if err != nil || len(pids) != 2 || pids[0] != 12 || pids[1] != 34 {
		t.Fatalf("parsePids: %v %v", pids, err)
	}
	if _, err := parsePids("12,abc"); err == nil {
		t.Fatal("bad pid accepted")
	}
	none, err := parsePids("")
	if err != nil || none != nil {
		t.Fatalf("empty list: %v %v", none, err)
	}
}

// TestResolveSockets: -sockets 3 runs three senders, and -sockets 0 one per
// CPU capped at 8, as the daemons resolve -listeners.
func TestResolveSockets(t *testing.T) {
	addr, stop := echoDNS(t)
	defer stop()
	for _, tc := range []struct {
		flag string
		want int
	}{
		{"3", 3},
		{"0", min(runtime.GOMAXPROCS(0), 8)},
	} {
		jsonPath := filepath.Join(t.TempDir(), "summary.json")
		var out strings.Builder
		err := run([]string{
			"-target", addr,
			"-rate", "500",
			"-duration", "50ms",
			"-drain", "50ms",
			"-sockets", tc.flag,
			"-domains", "4",
			"-json", jsonPath,
		}, &out)
		if err != nil {
			t.Fatalf("-sockets %s: run: %v\n%s", tc.flag, err, out.String())
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		var sum Summary
		if err := json.Unmarshal(data, &sum); err != nil {
			t.Fatal(err)
		}
		if sum.Sockets != tc.want {
			t.Fatalf("-sockets %s: %d senders, want %d", tc.flag, sum.Sockets, tc.want)
		}
	}
}

// TestPipelineCPUSelf exercises the /proc reader against this test process.
func TestPipelineCPUSelf(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc accounting is linux-only")
	}
	cpu := pipelineCPU([]int{os.Getpid()})
	if cpu < 0 {
		t.Fatal("own /proc stat unreadable")
	}
	rss := pipelineRSS([]int{os.Getpid()})
	if rss <= 0 {
		t.Fatalf("own RSS implausible: %v", rss)
	}
	if pipelineCPU(nil) != -1 || pipelineRSS(nil) != -1 {
		t.Fatal("empty pid list must report no accounting")
	}
	if pipelineCPU([]int{1 << 30}) != -1 {
		t.Fatal("nonexistent pid must report no accounting")
	}
}

// TestRateValidation rejects schedules the open loop cannot honour.
func TestRateValidation(t *testing.T) {
	if err := run([]string{"-rate", "0"}, &strings.Builder{}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if err := run([]string{"-domains", "0"}, &strings.Builder{}); err == nil {
		t.Fatal("zero domains accepted")
	}
	if err := run([]string{"-pipeline-pids", "x"}, &strings.Builder{}); err == nil {
		t.Fatal("bad pid list accepted")
	}
}
