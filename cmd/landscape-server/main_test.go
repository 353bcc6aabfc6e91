package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/obs"
	"botmeter/internal/obs/series"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

const fedEpochLen = sim.Hour

// fedTrace builds a deterministic observable trace: real barrels from the
// family's rotating pool plus unmatched noise, in timestamp order.
func fedTrace(t *testing.T, spec dga.Spec, seed uint64, servers, epochs, activations int) trace.Observed {
	t.Helper()
	var out trace.Observed
	for ep := 0; ep < epochs; ep++ {
		pool := spec.Pool.PoolFor(seed, ep)
		epochStart := sim.Time(ep) * fedEpochLen
		margin := fedEpochLen - spec.MaxDuration()
		if margin <= 0 {
			t.Fatalf("activation duration %v exceeds the epoch", spec.MaxDuration())
		}
		for sv := 0; sv < servers; sv++ {
			name := fmt.Sprintf("border-%d", sv)
			rng := sim.SplitFrom(seed, uint64(ep)*1_000_003+uint64(sv))
			for a := 0; a < activations; a++ {
				start := epochStart + sim.Time(rng.Int64N(int64(margin)))
				positions := dga.ExecuteBarrel(pool, spec.Barrel.Barrel(pool, spec.ThetaQ, rng))
				at := start
				for _, pos := range positions {
					out = append(out, trace.ObservedRecord{T: at, Server: name, Domain: pool.Domains[pos]})
					at += spec.Interval(rng)
				}
			}
			out = append(out, trace.ObservedRecord{
				T:      epochStart + sim.Time(rng.Int64N(int64(fedEpochLen))),
				Server: name,
				Domain: fmt.Sprintf("noise-%d-%d.example", ep, sv),
			})
		}
	}
	out.Sort()
	return out
}

// splitByServer deals servers round-robin (by first appearance) across n
// server-disjoint partitions — the federation's deployment contract.
func splitByServer(recs trace.Observed, n int) []trace.Observed {
	assign := make(map[string]int)
	parts := make([]trace.Observed, n)
	for _, rec := range recs {
		i, ok := assign[rec.Server]
		if !ok {
			i = len(assign) % n
			assign[rec.Server] = i
		}
		parts[i] = append(parts[i], rec)
	}
	return parts
}

// vantagePoint is one live vantage daemon stand-in: a real streaming
// engine behind a real diagnostics mux serving /state.
type vantagePoint struct {
	eng *stream.Engine
	srv *httptest.Server
}

func startVantagePoint(t *testing.T, cfg stream.Config, recs trace.Observed) *vantagePoint {
	t.Helper()
	eng, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("stream.New(%s): %v", cfg.Vantage, err)
	}
	for _, rec := range recs {
		if err := eng.Observe(rec); err != nil {
			t.Fatalf("Observe(%s): %v", cfg.Vantage, err)
		}
	}
	mux := obs.NewMux(obs.MuxConfig{State: func() ([]byte, error) {
		st, err := eng.ExportState()
		if err != nil {
			return nil, err
		}
		return stream.EncodeCheckpoint(st)
	}})
	srv := httptest.NewServer(mux)
	t.Cleanup(func() { srv.Close(); eng.Kill() })
	return &vantagePoint{eng: eng, srv: srv}
}

func fedConfig(spec dga.Spec, seed uint64, vantage string) stream.Config {
	return stream.Config{
		Core:    core.Config{Family: spec, Seed: seed, EpochLen: fedEpochLen},
		Shards:  2,
		Vantage: vantage,
	}
}

func testCoordinator(t *testing.T, reg *obs.Registry, urls []string, slo time.Duration) *coordinator {
	t.Helper()
	c := newCoordinator(coordinatorConfig{
		Registry:     reg,
		Store:        series.NewStore(series.Config{Capacity: 64, Step: time.Second}),
		Vantages:     urls,
		FreshnessSLO: slo,
		SLOFor:       1,
		HTTPTimeout:  5 * time.Second,
		Logger:       slog.New(slog.DiscardHandler),
	})
	t.Cleanup(c.close)
	return c
}

// referenceJSON is the single-engine-over-the-union landscape the merged
// coordinator must reproduce byte for byte.
func referenceJSON(t *testing.T, cfg stream.Config, recs trace.Observed) []byte {
	t.Helper()
	eng, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("stream.New(reference): %v", err)
	}
	defer eng.Kill()
	for _, rec := range recs {
		if err := eng.Observe(rec); err != nil {
			t.Fatalf("Observe(reference): %v", err)
		}
	}
	if err := eng.Quiesce(); err != nil {
		t.Fatalf("Quiesce(reference): %v", err)
	}
	body, err := eng.LandscapeJSON()
	if err != nil {
		t.Fatalf("LandscapeJSON(reference): %v", err)
	}
	return body
}

func TestFederationEndToEnd(t *testing.T) {
	spec := dga.Murofet()
	const seed = 7
	recs := fedTrace(t, spec, seed, 6, 2, 1)
	parts := splitByServer(recs, 2)
	vp0 := startVantagePoint(t, fedConfig(spec, seed, "v0"), parts[0])
	vp1 := startVantagePoint(t, fedConfig(spec, seed, "v1"), parts[1])
	urls := []string{vp0.srv.URL, vp1.srv.URL}

	reg := obs.NewRegistry()
	c := testCoordinator(t, reg, urls, time.Hour)
	front := httptest.NewServer(c.handler())
	defer front.Close()

	// Before any pull, /landscape is an honest 503.
	resp, err := http.Get(front.URL + "/landscape")
	if err != nil {
		t.Fatalf("GET /landscape: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-merge /landscape status = %d, want 503", resp.StatusCode)
	}

	c.pullAll(context.Background(), 2)

	resp, err = http.Get(front.URL + "/landscape")
	if err != nil {
		t.Fatalf("GET /landscape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/landscape status = %d: %s", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("/landscape has no ETag")
	}
	want := referenceJSON(t, fedConfig(spec, seed, ""), recs)
	if !bytes.Equal(body, want) {
		t.Fatalf("merged /landscape differs from single engine:\nsingle %s\nmerged %s", want, body)
	}
	sum := sha256.Sum256(body)
	if wantTag := `"` + hex.EncodeToString(sum[:]) + `"`; etag != wantTag {
		t.Fatalf("ETag %s is not the body's sha256 %s", etag, wantTag)
	}

	// Conditional revalidation: matching tag → 304 with no body; a stale
	// tag → full 200.
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/landscape", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("conditional GET: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("conditional GET = %d with %d body bytes, want bare 304", resp.StatusCode, len(b))
	}
	req.Header.Set("If-None-Match", `"stale"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stale conditional GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale conditional GET = %d, want 200", resp.StatusCode)
	}

	// /healthz names both vantage identities and is healthy.
	resp, err = http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d: %s", resp.StatusCode, hb)
	}
	for _, wantSub := range []string{"identities v0", "identities v1", "pulls 1, failures 0"} {
		if !strings.Contains(string(hb), wantSub) {
			t.Fatalf("/healthz body %q missing %q", hb, wantSub)
		}
	}

	// Per-vantage freshness and pull counters are in /metrics.
	resp, err = http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, url := range urls {
		if want := metricFreshness + `{vantage="` + url + `"}`; !strings.Contains(string(mb), want) {
			t.Fatalf("/metrics missing %s", want)
		}
		if got := reg.CounterValue(metricPulls, "vantage", url); got != 1 {
			t.Fatalf("%s{vantage=%s} = %d, want 1", metricPulls, url, got)
		}
		if age := reg.GaugeValue(metricFreshness, "vantage", url); age < 0 || age > 60 {
			t.Fatalf("freshness gauge for %s = %v, want a small positive age", url, age)
		}
	}
	if got := reg.GaugeValue(metricVantages); got != 2 {
		t.Fatalf("%s = %v, want 2", metricVantages, got)
	}

	// /state round-trips to the merged sufficient statistics (coordinator
	// chaining), naming both vantages.
	resp, err = http.Get(front.URL + "/state")
	if err != nil {
		t.Fatalf("GET /state: %v", err)
	}
	frame, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	st, err := stream.DecodeCheckpoint(frame)
	if err != nil {
		t.Fatalf("decoding /state: %v", err)
	}
	if len(st.Vantages) != 2 || st.Vantages[0] != "v0" || st.Vantages[1] != "v1" {
		t.Fatalf("/state vantages = %v, want [v0 v1]", st.Vantages)
	}

	// A third vantage pushes its snapshot; the landscape re-merges and the
	// ETag changes.
	extra := trace.Observed{
		{T: 10 * sim.Minute, Server: "border-pushed", Domain: "noise-pushed.example"},
	}
	vp2 := startVantagePoint(t, fedConfig(spec, seed, "v2"), extra)
	stFrame, err := func() ([]byte, error) {
		s, err := vp2.eng.ExportState()
		if err != nil {
			return nil, err
		}
		return stream.EncodeCheckpoint(s)
	}()
	if err != nil {
		t.Fatalf("exporting push frame: %v", err)
	}
	resp, err = http.Post(front.URL+"/push", "application/octet-stream", bytes.NewReader(stFrame))
	if err != nil {
		t.Fatalf("POST /push: %v", err)
	}
	pb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST /push = %d: %s", resp.StatusCode, pb)
	}
	resp, err = http.Get(front.URL + "/landscape")
	if err != nil {
		t.Fatalf("GET /landscape after push: %v", err)
	}
	pushed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	pushedTag := resp.Header.Get("ETag")
	if pushedTag == etag {
		t.Fatal("ETag did not change after a push merged new state")
	}

	// A frame whose servers are out of order is refused at decode, before
	// it can reach the merge, and the served landscape stays as it was.
	forged, err := vp0.eng.ExportState()
	if err != nil {
		t.Fatalf("exporting forged frame: %v", err)
	}
	forged.Vantages = []string{"v3"}
	swapped := false
	for _, sh := range forged.Shards {
		if len(sh.Servers) >= 2 {
			sh.Servers[0], sh.Servers[1] = sh.Servers[1], sh.Servers[0]
			swapped = true
			break
		}
	}
	if !swapped {
		t.Fatal("no shard of v0 holds two servers to swap")
	}
	forgedFrame, err := stream.EncodeCheckpoint(forged)
	if err != nil {
		t.Fatalf("EncodeCheckpoint(forged): %v", err)
	}
	resp, err = http.Post(front.URL+"/push", "application/octet-stream", bytes.NewReader(forgedFrame))
	if err != nil {
		t.Fatalf("POST forged /push: %v", err)
	}
	fb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(fb), "not above the one before") {
		t.Fatalf("POST servers out of order = %d %q, want 422 naming the order", resp.StatusCode, fb)
	}
	resp, err = http.Get(front.URL + "/landscape")
	if err != nil {
		t.Fatalf("GET /landscape after the refused push: %v", err)
	}
	after, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(after, pushed) || resp.Header.Get("ETag") != pushedTag {
		t.Fatalf("a refused push changed the served landscape:\nbefore %s\nafter  %s", pushed, after)
	}
}

// TestFederationConcurrentClients is the acceptance smoke: ≥100 clients
// revalidate /landscape with If-None-Match while the coordinator keeps
// merging fresh vantage state. Every 200 body must hash to its own ETag;
// every 304 must be empty.
func TestFederationConcurrentClients(t *testing.T) {
	spec := dga.Murofet()
	const seed = 21
	recs := fedTrace(t, spec, seed, 4, 2, 1)
	parts := splitByServer(recs, 2)
	// Hold half of each vantage's records back: the background merger
	// keeps the landscape changing under the clients.
	feedNow := make([]trace.Observed, 2)
	feedLater := make([]trace.Observed, 2)
	for i, part := range parts {
		half := len(part) / 2
		feedNow[i], feedLater[i] = part[:half], part[half:]
	}
	vps := []*vantagePoint{
		startVantagePoint(t, fedConfig(spec, seed, "v0"), feedNow[0]),
		startVantagePoint(t, fedConfig(spec, seed, "v1"), feedNow[1]),
	}
	c := testCoordinator(t, obs.NewRegistry(), []string{vps[0].srv.URL, vps[1].srv.URL}, time.Hour)
	c.pullAll(context.Background(), 2)
	front := httptest.NewServer(c.handler())
	defer front.Close()

	stop := make(chan struct{})
	var merges sync.WaitGroup
	merges.Add(1)
	go func() {
		defer merges.Done()
		pos := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Trickle pending records into the vantages, then re-pull.
			for i, vp := range vps {
				later := feedLater[i]
				for j := 0; j < 40 && pos+j < len(later); j++ {
					vp.eng.Observe(later[pos+j]) //nolint:errcheck
				}
			}
			pos += 40
			c.pullAll(context.Background(), 2)
		}
	}()

	const clients = 120
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			etag := ""
			for n := 0; n < 5; n++ {
				req, err := http.NewRequest(http.MethodGet, front.URL+"/landscape", nil)
				if err != nil {
					errs <- err
					return
				}
				if etag != "" {
					req.Header.Set("If-None-Match", etag)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					sum := sha256.Sum256(body)
					if want := `"` + hex.EncodeToString(sum[:]) + `"`; resp.Header.Get("ETag") != want {
						errs <- fmt.Errorf("ETag %s does not hash the body (%s)", resp.Header.Get("ETag"), want)
						return
					}
					etag = resp.Header.Get("ETag")
				case http.StatusNotModified:
					if len(body) != 0 {
						errs <- fmt.Errorf("304 carried %d body bytes", len(body))
						return
					}
				default:
					errs <- fmt.Errorf("unexpected status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	merges.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFederationFingerprintMismatch: a vantage analysing a different
// configuration is refused at merge time with the typed error, and
// /healthz degrades naming the divergent field.
func TestFederationFingerprintMismatch(t *testing.T) {
	spec := dga.Murofet()
	recs := fedTrace(t, spec, 7, 2, 1, 1)
	good := startVantagePoint(t, fedConfig(spec, 7, "good"), recs)
	bad := startVantagePoint(t, fedConfig(spec, 8, "bad"), nil) // different DGA seed
	reg := obs.NewRegistry()
	// fan-in 1 serializes pulls in URL order, so "good" pins the group
	// fingerprint before "bad" arrives.
	c := testCoordinator(t, reg, []string{good.srv.URL, bad.srv.URL}, 0)
	c.pullAll(context.Background(), 1)

	front := httptest.NewServer(c.handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d, want 503; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "seed") {
		t.Fatalf("/healthz body %q does not name the divergent field", body)
	}
	if got := reg.CounterValue(metricPullErrors, "vantage", bad.srv.URL); got != 1 {
		t.Fatalf("pull errors for the bad vantage = %d, want 1", got)
	}
	// The good vantage's landscape is still served.
	resp, err = http.Get(front.URL + "/landscape")
	if err != nil {
		t.Fatalf("GET /landscape: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/landscape = %d, want 200 from the healthy vantage", resp.StatusCode)
	}
}

// TestFederationFreshnessSLO: an unreachable vantage trips the freshness
// rule and /healthz degrades.
func TestFederationFreshnessSLO(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // refuse connections
	c := testCoordinator(t, obs.NewRegistry(), []string{dead.URL}, time.Nanosecond)
	c.pullAll(context.Background(), 1)
	err := c.health()
	if err == nil || !strings.Contains(err.Error(), "freshness") {
		t.Fatalf("health after a stale vantage = %v, want a freshness violation", err)
	}
}

// TestFederationPushValidation: /push refuses non-POSTs, undecodable
// frames and anonymous snapshots, and /state is a 500 before the first
// merge.
func TestFederationPushValidation(t *testing.T) {
	c := testCoordinator(t, obs.NewRegistry(), nil, 0)
	front := httptest.NewServer(c.handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/push")
	if err != nil {
		t.Fatalf("GET /push: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /push = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(front.URL+"/push", "application/octet-stream", strings.NewReader("not a frame"))
	if err != nil {
		t.Fatalf("POST garbage: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("POST garbage = %d, want 422", resp.StatusCode)
	}

	// A frame from an engine with no -vantage-id has no identity to merge
	// under.
	anon := startVantagePoint(t, fedConfig(dga.Murofet(), 7, ""), nil)
	st, err := anon.eng.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	frame, err := stream.EncodeCheckpoint(st)
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	resp, err = http.Post(front.URL+"/push", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("POST anonymous frame: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "vantage-id") {
		t.Fatalf("POST anonymous frame = %d %q, want 422 naming -vantage-id", resp.StatusCode, body)
	}

	resp, err = http.Get(front.URL + "/state")
	if err != nil {
		t.Fatalf("GET /state: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("pre-merge /state = %d, want 500", resp.StatusCode)
	}
}

// TestRebuildSharesPools: the coordinator keeps the last rebuild's engine
// until the next one is restored, so refreshing an unchanged state generates
// no pool — with no vantage engine left in the process to hold one for it.
func TestRebuildSharesPools(t *testing.T) {
	spec := dga.Murofet()
	const seed = 4242 // no other test's engines hold this seed's pools
	frame := func() []byte {
		eng, err := stream.New(fedConfig(spec, seed, "solo"))
		if err != nil {
			t.Fatalf("stream.New: %v", err)
		}
		defer eng.Kill()
		for _, rec := range fedTrace(t, spec, seed, 2, 2, 1) {
			if err := eng.Observe(rec); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
		st, err := eng.ExportState()
		if err != nil {
			t.Fatalf("ExportState: %v", err)
		}
		frame, err := stream.EncodeCheckpoint(st)
		if err != nil {
			t.Fatalf("EncodeCheckpoint: %v", err)
		}
		return frame
	}()
	reg := obs.NewRegistry()
	c := testCoordinator(t, reg, nil, 0)
	if _, err := c.ingestFrame(frame); err != nil {
		t.Fatalf("ingestFrame: %v", err)
	}
	if err := c.rebuild(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	first := c.served.Load().body
	// Collect the feeding engine: from here only the coordinator's own
	// engine keeps the pools alive.
	runtime.GC()
	runtime.GC()
	built := dga.PoolsBuilt()
	if dga.PoolsLive() == 0 {
		t.Fatal("no pool alive between rebuilds")
	}
	for i := 0; i < 2; i++ {
		if err := c.rebuild(); err != nil {
			t.Fatalf("rebuild %d: %v", i+2, err)
		}
		runtime.GC()
		runtime.GC()
	}
	if n := dga.PoolsBuilt() - built; n != 0 {
		t.Fatalf("two rebuilds of an unchanged state built %d pools, want 0", n)
	}
	if !bytes.Equal(c.served.Load().body, first) {
		t.Fatal("a rebuild of an unchanged state changed the landscape")
	}
	var metrics bytes.Buffer
	if err := reg.WritePrometheus(&metrics); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, name := range []string{dga.MetricPoolsLive, dga.MetricPoolsBuilt} {
		if !strings.Contains(metrics.String(), "# HELP "+name+" ") {
			t.Errorf("/metrics lacks %s with its help text", name)
		}
	}
}

// TestRunPullLoop drives the whole daemon: real flags, a real vantage to
// poll, and a context cancel for shutdown.
func TestRunPullLoop(t *testing.T) {
	spec := dga.Murofet()
	recs := fedTrace(t, spec, 7, 2, 1, 1)
	vp := startVantagePoint(t, fedConfig(spec, 7, "solo"), recs)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0",
			"-vantages", vp.srv.URL,
			"-pull-interval", "10ms",
			"-freshness-slo", "1h",
		}, os.Stderr)
	}()
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop on context cancel")
	}

	// Push-only mode (no vantages) also starts and stops cleanly.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		done <- run(ctx2, []string{"-listen", "127.0.0.1:0"}, os.Stderr)
	}()
	time.Sleep(30 * time.Millisecond)
	cancel2()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run (push-only): %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push-only run did not stop on context cancel")
	}
}

// TestRunFlagValidation covers the daemon's argument errors.
func TestRunFlagValidation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, args := range [][]string{
		{"-fan-in", "0"},
		{"-vantages", " , "},
		{"-log-level", "verbose"},
		{"-log-format", "xml"},
		{"-bogus"},
	} {
		if err := run(ctx, args, os.Stderr); err == nil {
			t.Fatalf("run(%v) accepted bad flags", args)
		}
	}
}
