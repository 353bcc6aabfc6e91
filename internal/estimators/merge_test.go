package estimators

import (
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"

	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// The merge-algebra property suite (DESIGN.md §18): states built by real
// streams over random record partitions must combine associatively,
// commutatively, with the empty state as identity — and MB exactly, under
// ANY partition. The streams see pool positions only; how a record came by
// its position (interned ID or name) is the matcher's business and is
// tested there (matcher.TestResolve) and at the engine
// (stream.TestAttributionInputsDifferential).

func stateJSON(tb testing.TB, v any) string {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatalf("marshal state: %v", err)
	}
	return string(b)
}

// nxdRecords draws n matched NXD lookups (random pool positions, random
// non-decreasing timestamps inside epoch 0) against cfg's pool.
func nxdRecords(tb testing.TB, cfg Config, rng *sim.RNG, n int) trace.Observed {
	tb.Helper()
	pool := cfg.Spec.Pool.PoolFor(cfg.Seed, 0)
	nxd := make([]int, 0, len(pool.Domains))
	for pos := range pool.Domains {
		if !pool.ValidAt(pos) {
			nxd = append(nxd, pos)
		}
	}
	if len(nxd) == 0 {
		tb.Fatal("pool has no NXD positions")
	}
	obs := make(trace.Observed, 0, n)
	t := sim.Time(0)
	for i := 0; i < n; i++ {
		t += sim.Time(rng.Int64N(int64(sim.Minute)))
		obs = append(obs, trace.ObservedRecord{T: t, Pos: int32(nxd[rng.IntN(len(nxd))])})
	}
	return obs
}

// mtRecords draws n lookups over a small domain alphabet (letterNames'
// pool) in non-decreasing time order (the EpochStream contract).
func mtRecords(rng *sim.RNG, n int) trace.Observed {
	obs := make(trace.Observed, 0, n)
	t := sim.Time(0)
	for i := 0; i < n; i++ {
		t += sim.Time(rng.Int64N(int64(2 * sim.Second)))
		obs = append(obs, trace.ObservedRecord{T: t, Pos: int32(rng.IntN(26))})
	}
	return obs
}

// partition splits obs into k subsequences by random assignment. Each part
// preserves the original (non-decreasing) time order.
func partition(obs trace.Observed, k int, rng *sim.RNG) []trace.Observed {
	parts := make([]trace.Observed, k)
	for _, rec := range obs {
		i := rng.IntN(k)
		parts[i] = append(parts[i], rec)
	}
	return parts
}

func runEpochStream(sc Estimator, cfg Config, obs trace.Observed) EpochStream {
	es := sc.OpenEpoch(0, cfg)
	for _, rec := range obs {
		es.Observe(rec)
	}
	return es
}

func mbStateOf(cfg Config, obs trace.Observed) BernoulliState {
	s := runEpochStream(NewBernoulli(), cfg, obs)
	st := s.ExportState(nil)
	s.(Releasable).Release()
	return *st.Bernoulli
}

func clusterStateOf(cfg Config, obs trace.Observed) ClusterStreamState {
	return *runEpochStream(NewPoisson(), cfg, obs).ExportState(nil).Clusters
}

func naiveStateOf(cfg Config, obs trace.Observed) ClusterStreamState {
	return *runEpochStream(NewNaive(), cfg, obs).ExportState(nil).Clusters
}

func mtStateOf(cfg Config, obs trace.Observed) TimingState {
	s := runEpochStream(NewTiming(), cfg, obs)
	st := s.ExportState(letterNames())
	s.(Releasable).Release()
	return *st.Timing
}

// TestMergeBernoulliPartitionExact: MB's pair-set state merged over ANY
// random partition of the records is byte-identical to the state of one
// stream that saw them all.
func TestMergeBernoulliPartitionExact(t *testing.T) {
	cfg := defaultCfg(arSpec(180, 20, 25)).withDefaults()
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		obs := nxdRecords(t, cfg, rng, 40+rng.IntN(120))
		full := mbStateOf(cfg, obs)

		k := 2 + rng.IntN(3)
		parts := partition(obs, k, rng)
		merged := BernoulliState{}
		for _, part := range parts {
			merged = merged.Merge(mbStateOf(cfg, part))
		}
		return stateJSON(t, merged) == stateJSON(t, BernoulliState{}.Merge(full))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// mergeCase adapts one family's state type to a uniform merge/JSON view so
// the algebra checks below run identically across MB/MP/NC/MT.
type mergeCase struct {
	name   string
	states func(t *testing.T, seed uint64) [3]string // canonical JSON of a, b, c
	merge  func(aJSON, bJSON string) string          // Merge via the JSON forms
	empty  string
}

func mergeJSONVia[S any](mergeFn func(S, S) S) func(string, string) string {
	return func(aJSON, bJSON string) string {
		var a, b S
		if err := json.Unmarshal([]byte(aJSON), &a); err != nil {
			panic(err)
		}
		if err := json.Unmarshal([]byte(bJSON), &b); err != nil {
			panic(err)
		}
		out, err := json.Marshal(mergeFn(a, b))
		if err != nil {
			panic(err)
		}
		return string(out)
	}
}

func mergeCases() []mergeCase {
	mbCfg := defaultCfg(arSpec(180, 20, 25)).withDefaults()
	mtCfg := defaultCfg(auSpec()).withDefaults()
	threeStates := func(seed uint64, stateOf func(Config, trace.Observed) string, cfg Config, recs func(*sim.RNG) trace.Observed) [3]string {
		rng := sim.NewRNG(seed)
		parts := partition(recs(rng), 3, rng)
		return [3]string{stateOf(cfg, parts[0]), stateOf(cfg, parts[1]), stateOf(cfg, parts[2])}
	}
	return []mergeCase{
		{
			name: "MB",
			states: func(t *testing.T, seed uint64) [3]string {
				return threeStates(seed, func(cfg Config, obs trace.Observed) string {
					return stateJSON(t, mbStateOf(cfg, obs))
				}, mbCfg, func(rng *sim.RNG) trace.Observed { return nxdRecords(t, mbCfg, rng, 60+rng.IntN(60)) })
			},
			merge: mergeJSONVia(BernoulliState.Merge),
			empty: `{}`,
		},
		{
			name: "MP",
			states: func(t *testing.T, seed uint64) [3]string {
				return threeStates(seed, func(cfg Config, obs trace.Observed) string {
					return stateJSON(t, clusterStateOf(cfg, obs))
				}, mtCfg, func(rng *sim.RNG) trace.Observed { return mtRecords(rng, 30+rng.IntN(60)) })
			},
			merge: mergeJSONVia(ClusterStreamState.Merge),
			empty: `{}`,
		},
		{
			name: "NC",
			states: func(t *testing.T, seed uint64) [3]string {
				return threeStates(seed, func(cfg Config, obs trace.Observed) string {
					return stateJSON(t, naiveStateOf(cfg, obs))
				}, mtCfg, func(rng *sim.RNG) trace.Observed { return mtRecords(rng, 30+rng.IntN(60)) })
			},
			merge: mergeJSONVia(ClusterStreamState.Merge),
			empty: `{}`,
		},
		{
			name: "MT",
			states: func(t *testing.T, seed uint64) [3]string {
				return threeStates(seed, func(cfg Config, obs trace.Observed) string {
					return stateJSON(t, mtStateOf(cfg, obs))
				}, mtCfg, func(rng *sim.RNG) trace.Observed { return mtRecords(rng, 30+rng.IntN(60)) })
			},
			merge: mergeJSONVia(TimingState.Merge),
			empty: `{"expired":0}`,
		},
	}
}

// TestMergeAlgebraProperties: for every family, states built from random
// record partitions obey Merge(a, Merge(b, c)) == Merge(Merge(a, b), c) ==
// every permutation's fold, and the empty state is an identity on
// canonicalized states.
func TestMergeAlgebraProperties(t *testing.T) {
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, mc := range mergeCases() {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			f := func(seed uint64) bool {
				s := mc.states(t, seed)
				a, b, c := s[0], s[1], s[2]
				left := mc.merge(a, mc.merge(b, c))
				right := mc.merge(mc.merge(a, b), c)
				if left != right {
					t.Logf("seed %d: associativity broken", seed)
					return false
				}
				for _, p := range perms {
					if got := mc.merge(mc.merge(s[p[0]], s[p[1]]), s[p[2]]); got != left {
						t.Logf("seed %d: permutation %v gave different state", seed, p)
						return false
					}
				}
				// Identity on canonical states: exported states are already
				// canonical, so one empty-merge must be a fixed point.
				canon := mc.merge(mc.empty, a)
				if canon != a || mc.merge(canon, mc.empty) != canon {
					t.Logf("seed %d: empty state is not an identity", seed)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMergeSelfMerge pins the self-merge contract: MB is idempotent (its
// state is a set), while the multiset families MP/NC/MT double their atoms
// — which is exactly why stream.MergeStates rejects merging two snapshots
// that claim the same vantage rather than relying on state-level checks.
func TestMergeSelfMerge(t *testing.T) {
	rng := sim.NewRNG(7)
	mbCfg := defaultCfg(arSpec(180, 20, 25)).withDefaults()
	mtCfg := defaultCfg(auSpec()).withDefaults()

	mb := mbStateOf(mbCfg, nxdRecords(t, mbCfg, rng, 80))
	if got, want := stateJSON(t, mb.Merge(mb)), stateJSON(t, mb); got != want {
		t.Errorf("MB self-merge not idempotent:\n got %s\nwant %s", got, want)
	}

	obs := mtRecords(rng, 60)
	mp := clusterStateOf(mtCfg, obs)
	if got, want := clusterStateCount(mp.Merge(mp)), 2*clusterStateCount(mp); got != want {
		t.Errorf("MP self-merge cluster count = %d, want doubled %d", got, want)
	}

	mt := mtStateOf(mtCfg, obs)
	doubled := mt.Merge(mt)
	if doubled.Expired != 2*mt.Expired || len(doubled.Active) != 2*len(mt.Active) {
		t.Errorf("MT self-merge = {expired %d, active %d}, want {%d, %d}",
			doubled.Expired, len(doubled.Active), 2*mt.Expired, 2*len(mt.Active))
	}
}

func clusterStateCount(st ClusterStreamState) int {
	n := len(st.Done)
	if st.Cur != nil {
		n++
	}
	return n
}

// TestEpochStateMerge: an EpochState holds one kind of statistic and merges
// with its own kind only; the zero state is the identity of every kind.
func TestEpochStateMerge(t *testing.T) {
	mb := EpochState{Bernoulli: &BernoulliState{Buckets: []BernoulliBucket{{Bucket: 1, Positions: []int{3, 5}}}}}
	mp := EpochState{Clusters: &ClusterStreamState{Cur: &ClusterState{Start: 1, End: 2, Count: 3}}}
	mt := EpochState{Timing: &TimingState{Expired: 2}}
	for _, st := range []EpochState{mb, mp, mt} {
		for _, pair := range [][2]EpochState{{st, {}}, {{}, st}} {
			got, err := pair[0].Merge(pair[1])
			if err != nil || !reflect.DeepEqual(got, st) {
				t.Errorf("merge with the zero state: %+v, %v; want %+v", got, err, st)
			}
		}
	}
	both, err := mb.Merge(mb)
	if err != nil || !reflect.DeepEqual(both, mb) {
		t.Errorf("MB self-merge: %+v, %v; want the set unchanged", both, err)
	}
	both.Bernoulli.Buckets[0].Positions[0] = 99
	if mb.Bernoulli.Buckets[0].Positions[0] != 3 {
		t.Error("a merged state shares memory with its input")
	}
	if _, err := mb.Merge(mp); err == nil {
		t.Error("states of different kinds merged")
	}
	if _, err := (EpochState{Timing: mt.Timing, Clusters: mp.Clusters}).Merge(EpochState{}); err == nil {
		t.Error("a state holding two kinds merged")
	}
}
