package stream_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"botmeter/internal/obs"
	"botmeter/internal/obs/obstest"
	"botmeter/internal/obs/rules"
	"botmeter/internal/obs/series"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// fakeClock is a hand-advanced wall clock shared by the engine, the
// observatory and the series store, making freshness deterministic.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock(at time.Time) *fakeClock { return &fakeClock{now: at} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// fnvShard mirrors the engine's documented FNV-1a server→shard hash, so
// the test can pick server names that land on chosen shards.
func fnvShard(server string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(server); i++ {
		h ^= uint32(server[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}

// serverOnShard finds a server name hashing to the wanted shard.
func serverOnShard(t *testing.T, want, shards int) string {
	t.Helper()
	for i := 0; i < 1024; i++ {
		name := "vantage-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		if fnvShard(name, shards) == want {
			return name
		}
	}
	t.Fatal("no server name found for shard")
	return ""
}

// waitStats polls the engine until cond holds (delivery through the shard
// channels is asynchronous).
func waitStats(t *testing.T, eng *stream.Engine, cond func(stream.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(eng.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("engine never reached expected state: %+v", eng.Stats())
}

// TestFreshnessSLOStalledShard is the deterministic freshness test the
// issue demands: two shards, live-mode timestamps, one shard's feed
// stalls, the wall clock advances past the SLO — the freshness rule must
// fire, Health must degrade and /healthz must flip to 503. Un-stalling
// the shard must clear it again (hysteresis: lag has to drop below half
// the SLO, which a fresh watermark achieves at once). The observatory has
// no Logger, as under botmeter -follow, so both transitions log to the
// discard default.
func TestFreshnessSLOStalledShard(t *testing.T) {
	spec, coreCfg := testConfig()
	// Live mode: record timestamps are Unix ms on the fake clock's epoch.
	base := time.UnixMilli(1_700_000_000_000)
	clock := newFakeClock(base)
	reg := obs.NewRegistry()
	eng, err := stream.New(stream.Config{
		Core:          coreCfg,
		Shards:        2,
		ReorderWindow: sim.Second,
		Registry:      reg,
		Clock:         clock.Now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer eng.Kill()
	obsy, err := stream.NewObservatory(stream.ObservatoryConfig{
		Engine:       eng,
		Registry:     reg,
		FreshnessSLO: 5 * time.Second,
		Clock:        clock.Now,
	})
	if err != nil {
		t.Fatalf("NewObservatory: %v", err)
	}
	mux := obs.NewMux(obs.MuxConfig{Registry: reg, Health: obsy.Health, Series: obsy.Store()})

	healthCode := func() int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}

	live := serverOnShard(t, 0, 2)
	stalled := serverOnShard(t, 1, 2)
	epoch := int(sim.Time(base.UnixMilli()) / coreCfg.EpochLen)
	pool := spec.Pool.PoolFor(coreCfg.Seed, epoch)
	observe := func(server string, at time.Time) {
		rec := trace.ObservedRecord{T: sim.Time(at.UnixMilli()), Server: server, Domain: pool.Domains[0]}
		if err := eng.Observe(rec); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}

	// Both shards see fresh matched traffic: lags are tiny, health is ok.
	observe(live, clock.Now())
	observe(stalled, clock.Now())
	waitStats(t, eng, func(s stream.Stats) bool { return s.Matched >= 2 })
	obsy.SampleIngest()
	if err := obsy.Health(); err != nil {
		t.Fatalf("healthy engine reported %v", err)
	}
	if code := healthCode(); code != 200 {
		t.Fatalf("/healthz = %d, want 200", code)
	}

	// The stalled shard's feed stops; the live shard keeps up with the
	// clock. Ten seconds later its watermark lag exceeds the 5 s SLO.
	clock.Advance(10 * time.Second)
	observe(live, clock.Now())
	waitStats(t, eng, func(s stream.Stats) bool { return s.Matched >= 3 })
	obsy.SampleIngest()
	if st := obsy.Rules().State(stream.RuleFreshness); st != rules.Firing {
		t.Fatalf("freshness rule = %v, want firing (shard stats: %+v)", st, eng.ShardStats())
	}
	err = obsy.Health()
	if err == nil || !strings.Contains(err.Error(), "freshness") {
		t.Fatalf("Health = %v, want freshness violation", err)
	}
	if code := healthCode(); code != 503 {
		t.Fatalf("/healthz = %d, want 503", code)
	}
	// The scrape-time gauge must agree with the rule's view.
	if lag := reg.GaugeValue(stream.MetricWatermarkLag, "shard", "1"); lag < 5 {
		t.Fatalf("stalled shard lag gauge = %v, want ≥ 5", lag)
	}

	// The stalled shard catches up: its watermark jumps to now − window,
	// dropping the lag below the clear level, and health recovers.
	observe(stalled, clock.Now())
	waitStats(t, eng, func(s stream.Stats) bool { return s.Matched >= 4 })
	obsy.SampleIngest()
	if err := obsy.Health(); err != nil {
		t.Fatalf("recovered engine reported %v", err)
	}
	if code := healthCode(); code != 200 {
		t.Fatalf("/healthz after recovery = %d, want 200", code)
	}

	// The store kept the lag series: its snapshot must contain per-shard
	// watermark-lag points.
	dumps := obsy.Store().Snapshot(stream.MetricWatermarkLag, 0)
	if len(dumps) != 2 {
		t.Fatalf("lag series count = %d, want 2 (one per shard)", len(dumps))
	}
	for _, d := range dumps {
		if len(d.Points) == 0 {
			t.Fatalf("lag series %s has no points", d.Name)
		}
	}
}

// TestObservatoryLandscapeSampling drives the landscape plane: totals,
// deltas, estimator disagreement and the /landscape/history payload.
func TestObservatoryLandscapeSampling(t *testing.T) {
	spec, coreCfg := testConfig()
	coreCfg.SecondOpinion = true
	clock := newFakeClock(time.UnixMilli(1_700_000_000_000))
	eng, err := stream.New(stream.Config{Core: coreCfg, Shards: 2, Clock: clock.Now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	recs := synthTrace(t, spec, coreCfg.Seed, 4, 2, 3)
	for _, rec := range recs {
		if err := eng.Observe(rec); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	waitStats(t, eng, func(s stream.Stats) bool { return s.Ingested == uint64(len(recs)) })
	obsy, err := stream.NewObservatory(stream.ObservatoryConfig{
		Engine:          eng,
		HistoryInterval: 10 * time.Second,
		DisagreementSLO: 100, // present but effectively unreachable
		Clock:           clock.Now,
	})
	if err != nil {
		t.Fatalf("NewObservatory: %v", err)
	}
	obsy.SampleLandscape()
	clock.Advance(10 * time.Second)
	obsy.SampleLandscape()
	if _, err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	body, err := obsy.HistoryJSON()
	if err != nil {
		t.Fatalf("HistoryJSON: %v", err)
	}
	var hist struct {
		IntervalMS int64  `json:"interval_ms"`
		Family     string `json:"family"`
		Estimator  string `json:"estimator"`
		Points     []struct {
			T            int64              `json:"t"`
			Total        float64            `json:"total"`
			Servers      int                `json:"servers"`
			Delta        float64            `json:"delta"`
			Estimates    map[string]float64 `json:"estimates"`
			Disagreement float64            `json:"disagreement"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &hist); err != nil {
		t.Fatalf("history JSON: %v\n%s", err, body)
	}
	if hist.Family != coreCfg.Family.Name || hist.Estimator == "" {
		t.Fatalf("history header = %q/%q", hist.Family, hist.Estimator)
	}
	if len(hist.Points) != 2 {
		t.Fatalf("history points = %d, want 2", len(hist.Points))
	}
	p0, p1 := hist.Points[0], hist.Points[1]
	if p0.Total <= 0 || p0.Servers != 4 {
		t.Fatalf("first sample: total %v servers %d", p0.Total, p0.Servers)
	}
	if p0.Delta != 0 {
		t.Fatalf("first sample delta = %v, want 0", p0.Delta)
	}
	if got := p1.Total - p0.Total; p1.Delta != got {
		t.Fatalf("second sample delta = %v, want %v", p1.Delta, got)
	}
	if len(p1.Estimates) < 2 {
		t.Fatalf("estimates = %v, want primary + MT second opinion", p1.Estimates)
	}
	if p1.Disagreement < 0 {
		t.Fatalf("disagreement = %v, want ≥ 0", p1.Disagreement)
	}
	// The same signals must be in the series store.
	for _, name := range []string{stream.MetricLandscapeTotal, stream.MetricDisagreement} {
		se := obsy.Store().Series(name)
		if _, ok := se.Last(); !ok {
			t.Fatalf("series %s not recorded", name)
		}
	}
	if line := obsy.StatusLine(); !strings.Contains(line, "lag") || !strings.Contains(line, "rec/s") {
		t.Fatalf("status line %q missing fields", line)
	}
}

// TestConcurrentScrape hammers /metrics, /debug/series and
// /landscape/history while records are ingested and the observatory
// samples on real tickers — the -race proof that exposition, sampling and
// ingest never trample each other, and that every /metrics body stays
// parseable by the strict validator.
func TestConcurrentScrape(t *testing.T) {
	spec, coreCfg := testConfig()
	coreCfg.SecondOpinion = true
	reg := obs.NewRegistry()
	eng, err := stream.New(stream.Config{Core: coreCfg, Shards: 4, Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	store := series.NewStore(series.Config{Capacity: 64, Step: time.Millisecond})
	obsy, err := stream.NewObservatory(stream.ObservatoryConfig{
		Engine:          eng,
		Store:           store,
		Registry:        reg,
		Interval:        2 * time.Millisecond,
		HistoryInterval: 5 * time.Millisecond,
		FreshnessSLO:    time.Hour, // present, not expected to fire
		LossRateSLO:     1,
	})
	if err != nil {
		t.Fatalf("NewObservatory: %v", err)
	}
	obsy.Start()
	mux := obs.NewMux(obs.MuxConfig{
		Registry:  reg,
		Health:    obsy.Health,
		Series:    store,
		Landscape: eng.LandscapeJSON,
		History:   obsy.HistoryJSON,
	})

	recs := synthTrace(t, spec, coreCfg.Seed, 6, 2, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, rec := range recs {
			if err := eng.Observe(rec); err != nil {
				return
			}
		}
	}()
	const scrapers = 4
	errs := make(chan error, scrapers*64)
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				for _, path := range []string{"/metrics", "/debug/series", "/landscape/history", "/healthz"} {
					rec := httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					if path == "/metrics" {
						if err := obstest.ValidatePrometheusText(rec.Body); err != nil {
							errs <- err
							return
						}
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	obsy.Stop()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent scrape: %v", err)
	}
	// The state the ingest path holds without walking it is counted at
	// scrape time: with every record taken in (the export is the barrier)
	// the last epoch's cells are open and their MT streams hold candidates.
	stateGauges := func() (cells, queued float64) {
		for shard := 0; shard < 4; shard++ {
			cells += reg.GaugeValue(stream.MetricOpenCells, "shard", fmt.Sprint(shard))
			queued += reg.GaugeValue(stream.MetricExpiryQueue, "shard", fmt.Sprint(shard))
		}
		return cells, queued
	}
	if _, err := eng.ExportState(); err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	if cells, queued := stateGauges(); cells == 0 || queued == 0 {
		t.Fatalf("mid-stream: %v open cells, %v queued for expiry, want both > 0", cells, queued)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if cells, queued := stateGauges(); cells != 0 || queued != 0 {
		t.Fatalf("after Close: %v open cells, %v queued for expiry, want none", cells, queued)
	}
	// One final full validation after everything settled.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if err := obstest.ValidatePrometheusText(strings.NewReader(body)); err != nil {
		t.Fatalf("final /metrics invalid: %v", err)
	}
	for _, name := range []string{stream.MetricOpenCells, stream.MetricExpiryQueue} {
		if !strings.Contains(body, "# HELP "+name+" ") || !strings.Contains(body, name+`{shard="3"} 0`) {
			t.Fatalf("final /metrics lacks %s with its help text", name)
		}
	}
	var dump struct {
		Series []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/series?prefix=stream_", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/debug/series: %v", err)
	}
	if len(dump.Series) == 0 {
		t.Fatal("/debug/series returned no stream_ series")
	}
}

// TestCheckpointAge pins the age semantics: before any checkpoint the age
// runs from creation; after one it runs from completion.
func TestCheckpointAge(t *testing.T) {
	_, coreCfg := testConfig()
	clock := newFakeClock(time.UnixMilli(1_700_000_000_000))
	eng, err := stream.New(stream.Config{Core: coreCfg, Shards: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer eng.Kill()
	ck, err := stream.NewCheckpointer(stream.CheckpointConfig{
		Dir:   t.TempDir(),
		Clock: clock.Now,
	})
	if err != nil {
		t.Fatalf("NewCheckpointer: %v", err)
	}
	clock.Advance(30 * time.Second)
	if age := ck.AgeSeconds(); age != 30 {
		t.Fatalf("age before first checkpoint = %v, want 30", age)
	}
	if err := ck.Checkpoint(eng, 0); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if age := ck.AgeSeconds(); age != 0 {
		t.Fatalf("age right after checkpoint = %v, want 0", age)
	}
	clock.Advance(7 * time.Second)
	if age := ck.AgeSeconds(); age != 7 {
		t.Fatalf("age after 7s = %v, want 7", age)
	}
}
