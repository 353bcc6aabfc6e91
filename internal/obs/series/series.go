// Package series is a bounded in-memory time-series store for the
// Landscape Observatory (DESIGN.md §16): each named series is a
// fixed-capacity ring of (timestamp, value) points with step-aligned
// downsampling — samples landing in the same step bucket overwrite the
// bucket (last value wins), so a series covers capacity × step of history
// regardless of how fast it is fed. The store is the backing of the
// /debug/series endpoint and of the freshness/drift rule evaluation
// (/landscape/history is the observatory's own ring, not this store); it
// is NOT a general TSDB — no persistence, no aggregation functions, no
// out-of-order inserts.
//
// Handles follow the internal/obs idiom: a nil *Store hands out nil
// *Series, and nil handles no-op, so disabled instrumentation costs one
// predictable branch. Record on a live handle is a mutex plus a clock read
// — bounded by BenchmarkSeriesRecord (< 100 ns/sample).
package series

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes a Store.
type Config struct {
	// Capacity is the number of points each series ring holds (0 = 512).
	Capacity int
	// Step is the downsampling bucket width (0 = 1 s). Timestamps are
	// truncated to the step; a sample whose bucket equals the newest point's
	// overwrites it instead of appending.
	Step time.Duration
	// MaxSeries bounds the number of distinct series (0 = 256). Creations
	// past the bound return a nil (no-op) handle and are counted.
	MaxSeries int
	// Clock overrides the sample timestamp source (tests). Nil = time.Now.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 512
	}
	if c.Step <= 0 {
		c.Step = time.Second
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 256
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Store holds named series. The store mutex is touched only at handle
// creation and query time; Record contends only on the one series' mutex.
// A nil *Store is a valid, disabled store.
type Store struct {
	cfg Config

	mu      sync.RWMutex
	series  map[string]*Series
	dropped uint64 // series creations rejected past MaxSeries
}

// NewStore builds an empty store.
func NewStore(cfg Config) *Store {
	return &Store{cfg: cfg.withDefaults(), series: make(map[string]*Series)}
}

// Name renders "family{k="v",…}" — the naming convention shared with the
// Prometheus exposition, so a series and its gauge twin line up in
// dashboards. Pairs are rendered in the order given (callers pass them
// consistently); values are escaped like Prometheus label values.
func Name(family string, labelKV ...string) string {
	if len(labelKV) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(labelKV); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labelKV[i])
		b.WriteString(`="`)
		v := labelKV[i+1]
		if strings.ContainsAny(v, "\\\"\n") {
			v = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
		}
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Series returns (creating on first use) the handle for name. Nil store —
// or a store already holding MaxSeries distinct names — returns nil, whose
// Record is a no-op.
func (s *Store) Series(name string) *Series {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	se := s.series[name]
	s.mu.RUnlock()
	if se != nil {
		return se
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if se = s.series[name]; se != nil {
		return se
	}
	if len(s.series) >= s.cfg.MaxSeries {
		s.dropped++
		return nil
	}
	// The ring holds Capacity−1 sealed points; the open bucket is the
	// Capacity-th, so a series never exceeds Capacity points total.
	se = &Series{
		name:   name,
		stepMS: s.cfg.Step.Milliseconds(),
		clock:  s.cfg.Clock,
		t:      make([]int64, s.cfg.Capacity-1),
		v:      make([]float64, s.cfg.Capacity-1),
	}
	s.series[name] = se
	return se
}

// Record appends one sample to the named series at the store clock's
// current time — the convenience path; hot callers keep the *Series handle.
func (s *Store) Record(name string, v float64) {
	s.Series(name).Record(v)
}

// Dropped reports how many series creations were rejected by MaxSeries.
func (s *Store) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dropped
}

// Step reports the store's downsampling step (0 for nil).
func (s *Store) Step() time.Duration {
	if s == nil {
		return 0
	}
	return s.cfg.Step
}

// Point is one sample.
type Point struct {
	// T is the step-aligned sample time in Unix milliseconds.
	T int64 `json:"t"`
	// V is the sample value (the last value recorded in the step).
	V float64 `json:"v"`
}

// Series is one bounded ring of points plus an open "current bucket"
// cell. Samples landing in the current bucket take a lock-free fast path
// (two atomics); only a bucket advance — once per step, however fast the
// series is fed — takes the ring mutex. All methods are nil-safe.
type Series struct {
	name   string
	stepMS int64
	clock  func() time.Time

	// curT/curV are the open bucket: curT is its step-aligned timestamp
	// (0 = no sample yet), curV the last value's bits. Same-bucket writers
	// race last-write-wins — exactly the downsampling contract.
	curT atomic.Int64
	curV atomic.Uint64

	mu   sync.Mutex
	t    []int64
	v    []float64
	head int // index of the next write
	n    int // points held (≤ capacity)
}

// Record appends v at the store clock's current time.
func (se *Series) Record(v float64) {
	if se == nil {
		return
	}
	se.RecordAt(se.clock(), v)
}

// RecordAt appends v at time at, truncated to the step. A sample in the
// current bucket overwrites it (last value wins — the downsampling
// contract); a sample older than the current bucket is clamped to it, so
// the ring stays time-ordered under clock skew.
func (se *Series) RecordAt(at time.Time, v float64) {
	if se == nil {
		return
	}
	bucket := at.UnixMilli()
	bucket -= bucket % se.stepMS
	if cur := se.curT.Load(); cur != 0 && bucket <= cur {
		se.curV.Store(math.Float64bits(v))
		return
	}
	se.advance(bucket, v)
}

// advance seals the open bucket into the ring and opens a new one.
func (se *Series) advance(bucket int64, v float64) {
	se.mu.Lock()
	cur := se.curT.Load()
	switch {
	case cur != 0 && bucket <= cur:
		// Another writer advanced past us while we waited for the lock.
		se.curV.Store(math.Float64bits(v))
	case cur != 0:
		se.pushLocked(cur, math.Float64frombits(se.curV.Load()))
		fallthrough
	default:
		se.curV.Store(math.Float64bits(v))
		se.curT.Store(bucket)
	}
	se.mu.Unlock()
}

// pushLocked appends one sealed point to the ring, evicting the oldest at
// capacity.
func (se *Series) pushLocked(t int64, v float64) {
	if len(se.t) == 0 { // Capacity 1: only the open bucket is retained
		return
	}
	se.t[se.head] = t
	se.v[se.head] = v
	se.head++
	if se.head == len(se.t) {
		se.head = 0
	}
	if se.n < len(se.t) {
		se.n++
	}
}

// Points returns the retained points — the sealed ring plus the open
// bucket — oldest first, newer than sinceMS (0 = everything).
func (se *Series) Points(sinceMS int64) []Point {
	if se == nil {
		return nil
	}
	se.mu.Lock()
	defer se.mu.Unlock()
	out := make([]Point, 0, se.n+1)
	start := se.head - se.n
	if start < 0 {
		start += len(se.t)
	}
	for i := 0; i < se.n; i++ {
		idx := start + i
		if idx >= len(se.t) {
			idx -= len(se.t)
		}
		if se.t[idx] > sinceMS {
			out = append(out, Point{T: se.t[idx], V: se.v[idx]})
		}
	}
	if cur := se.curT.Load(); cur != 0 && cur > sinceMS {
		out = append(out, Point{T: cur, V: math.Float64frombits(se.curV.Load())})
	}
	return out
}

// Last returns the newest point (ok false when empty or nil).
func (se *Series) Last() (Point, bool) {
	if se == nil {
		return Point{}, false
	}
	if cur := se.curT.Load(); cur != 0 {
		return Point{T: cur, V: math.Float64frombits(se.curV.Load())}, true
	}
	return Point{}, false
}

// Dump is one series rendered for the JSON query endpoint.
type Dump struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Snapshot returns every series whose name starts with prefix ("" = all),
// sorted by name, with points newer than sinceMS. Empty series (every
// point older than sinceMS) are included with an empty points list, so a
// query can distinguish "series exists, idle" from "no such series".
func (s *Store) Snapshot(prefix string, sinceMS int64) []Dump {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	handles := make([]*Series, 0, len(s.series))
	for name, se := range s.series {
		if strings.HasPrefix(name, prefix) {
			handles = append(handles, se)
		}
	}
	s.mu.RUnlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i].name < handles[j].name })
	out := make([]Dump, len(handles))
	for i, se := range handles {
		pts := se.Points(sinceMS)
		if pts == nil {
			pts = []Point{}
		}
		out[i] = Dump{Name: se.name, Points: pts}
	}
	return out
}

// storeJSON is the /debug/series response schema.
type storeJSON struct {
	StepMS   int64  `json:"step_ms"`
	Capacity int    `json:"capacity"`
	Dropped  uint64 `json:"dropped_series,omitempty"`
	Series   []Dump `json:"series"`
}

// ServeHTTP answers the /debug/series query endpoint:
//
//	GET /debug/series                     → every series
//	GET /debug/series?prefix=stream_      → name-prefix filter
//	GET /debug/series?name=<exact>        → one series
//	GET /debug/series?since=<unix ms>     → only newer points
func (s *Store) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s == nil {
		http.NotFound(w, r)
		return
	}
	q := r.URL.Query()
	var sinceMS int64
	if raw := q.Get("since"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad since %q: %v", raw, err), http.StatusBadRequest)
			return
		}
		sinceMS = v
	}
	dumps := s.Snapshot(q.Get("prefix"), sinceMS)
	if name := q.Get("name"); name != "" {
		filtered := dumps[:0]
		for _, d := range dumps {
			if d.Name == name {
				filtered = append(filtered, d)
			}
		}
		dumps = filtered
	}
	if dumps == nil {
		dumps = []Dump{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(storeJSON{ //nolint:errcheck // client gone
		StepMS:   s.cfg.Step.Milliseconds(),
		Capacity: s.cfg.Capacity,
		Dropped:  s.Dropped(),
		Series:   dumps,
	})
}
