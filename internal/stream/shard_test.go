package stream

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"botmeter/internal/core"
	"botmeter/internal/d3"
	"botmeter/internal/dga"
	"botmeter/internal/matcher"
	"botmeter/internal/sim"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// batchAttributionTrace is the input of TestShardBatchAttribution: n
// records in time order over two one-hour epochs, dealt to three servers,
// with every kind of lookup the shard's attribution pass meets — pool names
// by interned ID, by name as the pool spells it and upper-cased with a
// trailing dot, names of no pool, the detector's collision names, pool
// names the detector missed, and one name both epochs' pools hold (at
// different positions). Every eleventh pair is swapped, so some records
// arrive late.
func batchAttributionTrace(t *testing.T, cfg core.Config, tab *symtab.Table, n int) trace.Observed {
	t.Helper()
	matchers := core.NewEpochMatchers(cfg.Detection, cfg.Pools)
	type kinds struct{ reported, missed, collisions []string }
	var byEpoch [2]kinds
	for ep := range byEpoch {
		a, pool := matchers.For(ep), cfg.Pools.For(ep)
		k := &byEpoch[ep]
		for _, d := range pool.Domains {
			if _, ok := a.Resolve(trace.ObservedRecord{Domain: d}); ok {
				k.reported = append(k.reported, d)
			} else {
				k.missed = append(k.missed, d)
			}
		}
		for c := int32(pool.Size()); ; c++ {
			if _, ok := a.Resolve(trace.ObservedRecord{Domain: a.Name(c)}); !ok {
				t.Fatalf("epoch %d: collision %q does not resolve", ep, a.Name(c))
			}
			k.collisions = append(k.collisions, a.Name(c))
			if len(k.collisions) == cfg.Detection.Collisions {
				break
			}
		}
		if len(k.missed) == 0 {
			t.Fatalf("epoch %d: the detector missed nothing", ep)
		}
	}
	// The shared name: reported in both epochs, at different positions.
	shared := ""
	for _, d := range byEpoch[1].reported {
		p0, ok0 := matchers.For(0).Resolve(trace.ObservedRecord{Domain: d})
		p1, _ := matchers.For(1).Resolve(trace.ObservedRecord{Domain: d})
		if ok0 && p0 != p1 {
			shared = d
			break
		}
	}
	if shared == "" {
		t.Fatal("no name is reported in both epochs' pools")
	}

	rng := sim.NewRNG(0x5A7D)
	servers := []string{"local-a", "local-b", "local-c"}
	step := 2 * cfg.EpochLen / sim.Time(n)
	recs := make(trace.Observed, n)
	for i := range recs {
		at := sim.Time(i) * step
		k := byEpoch[at/cfg.EpochLen]
		pick := func(names []string) string { return names[rng.IntN(len(names))] }
		rec := trace.ObservedRecord{T: at, Server: servers[i%len(servers)]}
		switch i % 8 {
		case 0, 7:
			rec.Domain = pick(k.reported)
			rec.ID = tab.Intern(rec.Domain)
		case 1:
			rec.Domain = strings.ToUpper(pick(k.reported)) + "."
		case 2:
			rec.Domain = pick(k.reported)
		case 3:
			rec.Domain = fmt.Sprintf("benign-%d.example.org", rng.IntN(50))
			if i%16 == 3 {
				rec.ID = tab.Intern(rec.Domain)
			}
		case 4:
			rec.Domain = strings.ToUpper(pick(k.collisions)) + "."
		case 5:
			rec.Domain = pick(k.missed)
		case 6:
			rec.Domain = shared
		}
		recs[i] = rec
	}
	for i := 10; i+1 < n; i += 11 {
		recs[i], recs[i+1] = recs[i+1], recs[i]
	}
	return recs
}

// batchAttributionConfig is the analysis batchAttributionTrace is written
// for: a sliding-window family in one-hour epochs, whose detector misses a
// fifth of each pool and adds three collision names, its pools interned in
// tab.
func batchAttributionConfig(tab *symtab.Table) core.Config {
	cfg := core.Config{
		Family: dga.Spec{
			Name:          "mini-SW",
			Pool:          dga.SlidingWindow{PerDay: 60, Back: 1, C2: 2, Gen: dga.DefaultGenerator},
			Barrel:        dga.Uniform{},
			ThetaQ:        60,
			QueryInterval: sim.Second,
		},
		Seed:          0x5A7D,
		EpochLen:      sim.Hour,
		SecondOpinion: true,
		Detection:     &d3.Window{MissRate: 0.2, Collisions: 3, Seed: 4},
	}
	cfg.Pools = dga.NewPoolCache(cfg.Family.Pool, cfg.Seed, tab)
	return cfg
}

// TestShardBatchAttribution: a shard resolves every record of the batch it
// takes in one pass before it ingests any of them, so a batch that spans an
// epoch boundary and holds barrier requests between its records must leave
// the engine where one record a batch does. One shard is fed the trace in
// bulk — held, so that all but the first record wait in its inbox as one
// batch with a barrier queued behind each record — and again with the
// barrier called after every record, which makes every batch one record
// long. The barrier is an export, compared after every record, or a
// quiesce, with exports at the epoch boundary. Exported state, checkpoint
// bytes and /landscape bytes must be equal.
func TestShardBatchAttribution(t *testing.T) {
	const n = 400
	tab := symtab.New()
	cfg := batchAttributionConfig(tab)
	recs := batchAttributionTrace(t, cfg, tab, n)
	boundary := 0
	for recs[boundary].T < cfg.EpochLen {
		boundary++
	}
	newEngine := func() *Engine {
		e, err := New(Config{Core: cfg, Shards: 1, ShardBuffer: n, ReorderWindow: 30 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	encode := func(e *Engine, st ShardState) []byte {
		data, err := EncodeCheckpoint(&EngineState{Fingerprint: e.fingerprint(), Shards: []ShardState{st}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	for _, quiesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("quiesce=%v", quiesce), func(t *testing.T) {
			// exportAfter says which records an export follows.
			exportAfter := func(i int) bool { return !quiesce || i == boundary-1 || i == boundary }

			// One record a batch: every call waits for its barrier.
			single := newEngine()
			defer single.Kill()
			var want [][]byte
			for i, rec := range recs {
				if err := single.Observe(rec); err != nil {
					t.Fatal(err)
				}
				if quiesce {
					if err := single.Quiesce(); err != nil {
						t.Fatal(err)
					}
				}
				if exportAfter(i) {
					st, err := single.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, encode(single, st.Shards[0]))
				}
			}

			// In bulk: the shard takes the first record alone, then waits
			// for its lock while the rest queue up behind it.
			bulk := newEngine()
			defer bulk.Kill()
			s := bulk.shards[0]
			s.mu.Lock()
			var reqs []*shardCtl
			var exports []*shardCtl
			for i, rec := range recs {
				if err := bulk.Observe(rec); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					waitFor(t, "the shard to take its first batch", func() bool { r, _ := s.pending(); return r == 0 })
				}
				if quiesce {
					req := &shardCtl{quiesce: true, done: make(chan struct{})}
					s.in.request(req)
					reqs = append(reqs, req)
				}
				if exportAfter(i) {
					req := &shardCtl{done: make(chan struct{})}
					s.in.request(req)
					reqs, exports = append(reqs, req), append(exports, req)
				}
			}
			if r, c := s.pending(); r != n-1 || c != len(reqs) {
				t.Fatalf("inbox holds %d records and %d requests, want %d and %d", r, c, n-1, len(reqs))
			}
			s.mu.Unlock()
			for _, req := range reqs {
				<-req.done
			}
			for k, req := range exports {
				if got := encode(bulk, req.state); !bytes.Equal(got, want[k]) {
					t.Fatalf("export %d of %d: bulk checkpoint differs from one record a batch", k, len(exports))
				}
			}

			st := bulk.Stats()
			// A quiesce makes the swapped pairs' later records late.
			if st.Ingested != n || st.Matched == 0 || st.Unmatched == 0 || (st.DroppedLate > 0) != quiesce {
				t.Fatalf("degenerate run: %+v", st)
			}
			if st != single.Stats() {
				t.Fatalf("bulk stats %+v, one record a batch %+v", st, single.Stats())
			}
			got, err := bulk.LandscapeJSON()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := single.LandscapeJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("bulk /landscape differs from one record a batch:\n%s\n%s", got, ref)
			}
		})
	}
}

// TestHeldResolvesAsName: Held's spelling of a name attributes as the name
// does at every epoch, for every kind of lookup — a pool name as the pool
// spells it and upper-cased with a trailing dot, a collision name, a pool
// name the detector missed, a name of no pool, the empty name — and never
// aliases the caller's bytes. An engine fed Held's spellings ends where
// one fed the names does: the same exports, checkpoint bytes, Stats and
// /landscape bytes. No preset family's pool holds "", the spelling of a
// lookup the DGA is not charged with.
func TestHeldResolvesAsName(t *testing.T) {
	const n = 400
	tab := symtab.New()
	cfg := batchAttributionConfig(tab)
	recs := batchAttributionTrace(t, cfg, tab, n)
	newEngine := func() *Engine {
		e, err := New(Config{Core: cfg, Shards: 2, ShardBuffer: n, ReorderWindow: 30 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	pos := func(a *matcher.Attribution, name string) int32 {
		if p, ok := a.Resolve(trace.ObservedRecord{Domain: name}); ok {
			return p
		}
		return -1
	}

	e := newEngine()
	defer e.Kill()
	for ep := 0; ep < 2; ep++ {
		at := sim.Time(ep)*cfg.EpochLen + cfg.EpochLen/2
		a, pool := e.bm.Matcher(ep), cfg.Pools.For(ep)
		names := []string{"", ".", "benign.example.org", "BENIGN.example.org."}
		for _, d := range pool.Domains {
			names = append(names, d, strings.ToUpper(d)+".")
		}
		for k := range cfg.Detection.Collisions {
			c := a.Name(int32(pool.Size() + k))
			names = append(names, c, strings.ToUpper(c)+".")
		}
		var charged, missed int
		for _, name := range names {
			// The caller's bytes, overwritten once Held has returned.
			buf := []byte(name)
			var src string
			if len(buf) > 0 {
				src = unsafe.String(&buf[0], len(buf))
			}
			held := e.Held(at, src)
			want := pos(a, name)
			for i := range buf {
				buf[i] = '#'
			}
			if got := pos(a, held); got != want {
				t.Fatalf("epoch %d: %q resolves to %d, Held's %q to %d", ep, name, want, held, got)
			}
			switch {
			case want < 0 && held != "":
				t.Fatalf("epoch %d: Held(%q) = %q for a lookup the DGA is not charged with", ep, name, held)
			case want >= 0 && held != a.Name(want):
				t.Fatalf("epoch %d: Held(%q) = %q, want the matcher's %q", ep, name, held, a.Name(want))
			case want >= 0:
				charged++
			default:
				if _, in := pool.Position(name); in {
					missed++
				}
			}
		}
		if charged == 0 || missed == 0 {
			t.Fatalf("epoch %d: degenerate probe: %d charged, %d missed by the detector", ep, charged, missed)
		}
	}

	// The differential: one engine fed the trace as it is, one fed Held's
	// spelling of each record's name and no interned ID.
	raw, held := newEngine(), newEngine()
	defer raw.Kill()
	defer held.Kill()
	compare := func(stage string) {
		t.Helper()
		var enc [2][]byte
		for k, e := range []*Engine{raw, held} {
			st, err := e.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if enc[k], err = EncodeCheckpoint(st); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Fatalf("%s: checkpoint bytes differ between raw names and Held's spellings", stage)
		}
		if rs, hs := raw.Stats(), held.Stats(); rs != hs {
			t.Fatalf("%s: stats %+v from raw names, %+v from Held's spellings", stage, rs, hs)
		}
		rl, err := raw.LandscapeJSON()
		if err != nil {
			t.Fatal(err)
		}
		hl, err := held.LandscapeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rl, hl) {
			t.Fatalf("%s: /landscape differs:\n%s\n%s", stage, rl, hl)
		}
	}
	for i, rec := range recs {
		if err := raw.Observe(rec); err != nil {
			t.Fatal(err)
		}
		if err := held.Observe(trace.ObservedRecord{T: rec.T, Server: rec.Server, Domain: held.Held(rec.T, rec.Domain)}); err != nil {
			t.Fatal(err)
		}
		if i == n/2 {
			compare("half-way")
		}
	}
	compare("fed")
	for _, e := range []*Engine{raw, held} {
		if err := e.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	compare("quiesced")
	if st := held.Stats(); st.Ingested != n || st.Matched == 0 || st.Unmatched == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}

	for name, spec := range dga.Families() {
		for _, ep := range []int{0, 1, 19000} {
			if p, in := spec.Pool.PoolFor(1, ep).Position(""); in {
				t.Errorf("%s epoch %d: the pool holds the empty name at position %d", name, ep, p)
			}
		}
	}
}
