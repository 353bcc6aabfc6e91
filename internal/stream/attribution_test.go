package stream_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"botmeter/internal/botnet"
	"botmeter/internal/core"
	"botmeter/internal/d3"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/estimators"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// attributionCase is one engine configuration of the two tests below.
type attributionCase struct {
	name string
	core core.Config
}

// attributionCases: MT as the primary (candidates in every cell), MB
// (positions), and MP with the MT second opinion beside it.
func attributionCases() []attributionCase {
	au := dga.Spec{
		Name:          "mini-AU",
		Pool:          dga.DrainReplenish{NX: 198, C2: 2, Gen: dga.DefaultGenerator},
		Barrel:        dga.Uniform{},
		ThetaQ:        200,
		QueryInterval: 500 * sim.Millisecond,
	}
	ar := dga.Spec{
		Name:          "mini-AR",
		Pool:          dga.DrainReplenish{NX: 995, C2: 5, Gen: dga.DefaultGenerator},
		Barrel:        dga.RandomCut{},
		ThetaQ:        100,
		QueryInterval: sim.Second,
	}
	return []attributionCase{
		{"MT-primary", core.Config{Family: au, Estimators: []estimators.Estimator{estimators.NewTiming()}}},
		{"MB-primary", core.Config{Family: ar}},
		{"MP+second-opinion", core.Config{Family: au, SecondOpinion: true}},
	}
}

const attributionSeed = 0xA77B

// attributionDetection misses a fifth of every pool and reports four benign
// names as the DGA's.
var attributionDetection = d3.Window{MissRate: 0.2, Collisions: 4, Seed: 9}

// borderTrace simulates two days of the family behind three local servers
// and returns what the border saw — every record carrying the ID the
// network's table gave its name — with benign lookups mixed in: the
// detector's collision names (matched) and one unrelated name (not). pools
// shares the network's table.
func borderTrace(t *testing.T, spec dga.Spec) (obs trace.Observed, pools *dga.PoolCache) {
	t.Helper()
	tab := symtab.New()
	pools = dga.NewPoolCache(spec.Pool, attributionSeed, tab)
	net := dnssim.NewNetwork(dnssim.NetworkConfig{LocalServers: 3, PositiveTTL: sim.Day, NegativeTTL: 2 * sim.Hour, Granularity: 100 * sim.Millisecond})
	r, err := botnet.NewRunner(botnet.Config{
		Spec:          spec,
		Seed:          attributionSeed,
		BotsPerServer: map[string]int{"local-00": 12, "local-01": 7, "local-02": 3},
		Pools:         pools,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(sim.Window{Start: 0, End: 2 * sim.Day}); err != nil {
		t.Fatal(err)
	}
	obs = append(obs, net.Border.Observed()...)
	benign := func(at sim.Time, server, name string) {
		obs = append(obs, trace.ObservedRecord{T: at, Server: server, Domain: name, ID: tab.Intern(name)})
	}
	for ep := 0; ep < 2; ep++ {
		for i := 0; i < attributionDetection.Collisions; i++ {
			at := sim.Time(ep)*sim.Day + sim.Time(3+5*i)*sim.Hour
			benign(at, fmt.Sprintf("local-%02d", i%3), fmt.Sprintf("benign-collision-%d-%d.com", ep, i))
			benign(at+sim.Minute, "local-00", "www.example.org")
		}
	}
	obs.Sort()
	return obs, pools
}

// TestAttributionInputsDifferential: a record reaches the matcher with an
// interned ID (a simulated border, pools sharing its table) or with only a
// name (a trace, the wire), spelled as the pool spells it or not. Past the
// matcher it is a time, a server and a pool position, so nothing the engine
// exports can tell the inputs apart: fed the same trace in the three forms,
// three engines must produce identical checkpoint bytes and identical
// /landscape bytes at every step — across a mid-epoch checkpoint, a kill and
// a restore from it, at one shard and at four.
func TestAttributionInputsDifferential(t *testing.T) {
	for _, tc := range attributionCases() {
		withIDs, pools := borderTrace(t, tc.core.Family)
		names := append(trace.Observed(nil), withIDs...)
		shouted := append(trace.Observed(nil), withIDs...)
		for i := range names {
			names[i].ID = symtab.None
			shouted[i].ID = symtab.None
			shouted[i].Domain = strings.ToUpper(shouted[i].Domain) + "."
		}
		arms := []struct {
			name  string
			obs   trace.Observed
			pools *dga.PoolCache // nil: the engine's private, unsymbolized cache
		}{
			{"ids", withIDs, pools},
			{"names", names, nil},
			{"shouted names", shouted, nil},
		}
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				cfgs := make([]stream.Config, len(arms))
				engs := make([]*stream.Engine, len(arms))
				for i, arm := range arms {
					det := attributionDetection
					cfgs[i] = stream.Config{Core: tc.core, Shards: shards, ReorderWindow: 5 * sim.Second}
					cfgs[i].Core.Seed = attributionSeed
					cfgs[i].Core.Granularity = 100 * sim.Millisecond
					cfgs[i].Core.Detection = &det
					cfgs[i].Core.Pools = arm.pools
					var err error
					if engs[i], err = stream.New(cfgs[i]); err != nil {
						t.Fatalf("%s: stream.New: %v", arm.name, err)
					}
				}
				// compare exports every engine and checks each arm against the
				// first.
				compare := func(step string) [][]byte {
					t.Helper()
					var frames, checks, lands [][]byte
					for i, arm := range arms {
						st, frame := exportBytes(t, engs[i])
						check, err := stream.EncodeCheckpoint(st)
						if err != nil {
							t.Fatalf("%s: EncodeCheckpoint: %v", arm.name, err)
						}
						land, err := engs[i].LandscapeJSON()
						if err != nil {
							t.Fatalf("%s: LandscapeJSON: %v", arm.name, err)
						}
						frames, checks, lands = append(frames, frame), append(checks, check), append(lands, land)
						if !bytes.Equal(check, checks[0]) {
							t.Fatalf("%s: checkpoint of %q differs from %q's", step, arm.name, arms[0].name)
						}
						if !bytes.Equal(land, lands[0]) {
							t.Fatalf("%s: landscape of %q differs from %q's:\n%s\n%s", step, arm.name, arms[0].name, land, lands[0])
						}
					}
					return frames
				}
				feed := func(from, to int) {
					t.Helper()
					for i, arm := range arms {
						for _, rec := range arm.obs[from:to] {
							if err := engs[i].Observe(rec); err != nil {
								t.Fatalf("%s: Observe: %v", arm.name, err)
							}
						}
					}
				}
				n := len(withIDs)
				// The cut lands inside the second day: closed cells, open
				// cells and a reorder buffer are all in the state.
				cut := n * 3 / 4
				if ep := withIDs[cut].T / sim.Day; ep != 1 || withIDs[cut].T%sim.Day == 0 {
					t.Fatalf("cut at %v is not mid-epoch", withIDs[cut].T)
				}
				feed(0, n/3)
				compare("a third in")
				feed(n/3, cut)
				frames := compare("mid-epoch cut")
				for i, arm := range arms {
					engs[i].Kill()
					st, err := stream.DecodeCheckpoint(frames[i])
					if err != nil {
						t.Fatalf("%s: DecodeCheckpoint: %v", arm.name, err)
					}
					if engs[i], err = stream.Restore(cfgs[i], st); err != nil {
						t.Fatalf("%s: Restore: %v", arm.name, err)
					}
				}
				compare("restored")
				feed(cut, n)
				compare("end of trace")
				var want []byte
				for i, arm := range arms {
					land, err := engs[i].Close()
					if err != nil {
						t.Fatalf("%s: Close: %v", arm.name, err)
					}
					if land.Total <= 0 || land.MatchedLookups == 0 {
						t.Fatalf("%s: degenerate landscape %+v", arm.name, land)
					}
					got := landscapeBytes(t, land)
					if i == 0 {
						want = got
					} else if !bytes.Equal(got, want) {
						t.Fatalf("final landscape of %q differs from %q's", arm.name, arms[0].name)
					}
				}
			})
		}
	}
}

// TestRestoreRefusesUnattributable: everything the engine holds as a pool
// position is a name in the checkpoint, and Restore turns it back through
// the epoch's matcher. A name that matcher does not hold — in an MT
// candidate, in the reorder buffer — cannot be given a position: Restore must say so (server, epoch, domain) and must
// not start an engine that estimates from something else.
func TestRestoreRefusesUnattributable(t *testing.T) {
	const foreign = "not-in-any-pool.example"
	// Each damage returns false when the state holds nothing of its kind.
	damages := []struct {
		name   string
		damage func(st *stream.EngineState) bool
	}{
		{"timing candidate", func(st *stream.EngineState) bool {
			for _, sh := range st.Shards {
				for _, sv := range sh.Servers {
					for _, cell := range sv.Open {
						for _, es := range cell.States {
							if ts := es.Timing; ts != nil && len(ts.Active) > 0 {
								ts.Active[0].Domains[0] = foreign
								return true
							}
						}
					}
				}
			}
			return false
		}},
		{"reorder buffer", func(st *stream.EngineState) bool {
			for _, sh := range st.Shards {
				if len(sh.Buffer) > 0 {
					sh.Buffer[len(sh.Buffer)/2].Domain = foreign
					return true
				}
			}
			return false
		}},
	}
	cases := attributionCases()
	cases = append(cases, attributionCase{"MB-C-primary", core.Config{Family: cases[1].core.Family, Estimators: []estimators.Estimator{estimators.NewCoverage()}}})
	hit := map[string]bool{}
	for _, tc := range cases {
		obs, _ := borderTrace(t, tc.core.Family)
		cfg := stream.Config{Core: tc.core, Shards: 2, ReorderWindow: 5 * sim.Second}
		cfg.Core.Seed = attributionSeed
		cfg.Core.Granularity = 100 * sim.Millisecond
		eng, err := stream.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Stop inside an activation, so the reorder buffer and the MT
		// candidates are populated.
		cut := len(obs) * 3 / 4
		for cut < len(obs)-1 && obs[cut+1].T-obs[cut].T > sim.Second {
			cut++
		}
		for _, rec := range obs[:cut+1] {
			rec.ID = symtab.None
			if err := eng.Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
		_, frame := exportBytes(t, eng)
		eng.Kill()
		for _, d := range damages {
			st, err := stream.DecodeCheckpoint(frame)
			if err != nil {
				t.Fatal(err)
			}
			if !d.damage(st) {
				continue
			}
			hit[d.name] = true
			t.Run(tc.name+"/"+d.name, func(t *testing.T) {
				restored, err := stream.Restore(cfg, st)
				if err == nil {
					restored.Kill()
					t.Fatal("Restore accepted a state naming a domain outside the epoch's pool")
				}
				for _, want := range []string{foreign, "local-0", "epoch"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name %q", err, want)
					}
				}
			})
		}
	}
	for _, d := range damages {
		if !hit[d.name] {
			t.Errorf("no state held a %s to damage", d.name)
		}
	}
}
