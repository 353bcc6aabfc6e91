package botnet

import (
	"fmt"
	"strings"
	"testing"

	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

func testNetwork() *dnssim.Network {
	return dnssim.NewNetwork(dnssim.NetworkConfig{
		LocalServers: 2,
		PositiveTTL:  sim.Day,
		NegativeTTL:  2 * sim.Hour,
		RecordRaw:    true,
	})
}

func smallSpec() dga.Spec {
	return dga.Spec{
		Name:          "TestDGA",
		Pool:          dga.DrainReplenish{NX: 30, C2: 2, Gen: dga.DefaultGenerator},
		Barrel:        dga.Uniform{},
		ThetaQ:        32,
		QueryInterval: 500 * sim.Millisecond,
	}
}

func TestRunnerValidation(t *testing.T) {
	net := testNetwork()
	if _, err := NewRunner(Config{Spec: dga.Spec{}, BotsPerServer: nil}, net); err == nil {
		t.Error("invalid spec should fail")
	}
	if _, err := NewRunner(Config{Spec: smallSpec()}, nil); err == nil {
		t.Error("nil network should fail")
	}
	if _, err := NewRunner(Config{Spec: smallSpec(), BotsPerServer: map[string]int{"nope": 1}}, net); err == nil {
		t.Error("unknown server should fail")
	}
	if _, err := NewRunner(Config{Spec: smallSpec(), BotsPerServer: map[string]int{"local-00": -1}}, net); err == nil {
		t.Error("negative population should fail")
	}
}

func TestRunProducesGroundTruthAndTraces(t *testing.T) {
	net := testNetwork()
	r, err := NewRunner(Config{
		Spec:          smallSpec(),
		Seed:          7,
		BotsPerServer: map[string]int{"local-00": 20, "local-01": 10},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(sim.Window{Start: 0, End: sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 1 {
		t.Fatalf("epochs = %d, want 1", len(res.Epochs))
	}
	a0 := res.ActiveBots["local-00"][0]
	a1 := res.ActiveBots["local-01"][0]
	if a0 <= 0 || a0 > 20 || a1 <= 0 || a1 > 10 {
		t.Errorf("active bots: local-00=%d local-01=%d", a0, a1)
	}
	if res.QueriesIssued == 0 {
		t.Error("no queries issued")
	}
	if len(net.Raw()) != res.QueriesIssued {
		t.Errorf("raw records %d != queries %d", len(net.Raw()), res.QueriesIssued)
	}
	if len(net.Border.Observed()) == 0 {
		t.Error("border saw nothing")
	}
	if len(net.Border.Observed()) > len(net.Raw()) {
		t.Error("observed exceeds raw")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	run := func() (int, int) {
		net := testNetwork()
		r, err := NewRunner(Config{
			Spec:          smallSpec(),
			Seed:          99,
			BotsPerServer: map[string]int{"local-00": 15},
		}, net)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(sim.Window{Start: 0, End: sim.Day})
		if err != nil {
			t.Fatal(err)
		}
		return res.QueriesIssued, len(net.Border.Observed())
	}
	q1, o1 := run()
	q2, o2 := run()
	if q1 != q2 || o1 != o2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", q1, o1, q2, o2)
	}
}

func TestBotsStopAtC2(t *testing.T) {
	// With C2 at early uniform positions, bots resolve quickly: every
	// activation should make at most pool-size queries and at least one C2
	// contact should occur across the population.
	net := testNetwork()
	r, err := NewRunner(Config{
		Spec:          smallSpec(),
		Seed:          3,
		BotsPerServer: map[string]int{"local-00": 10},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(sim.Window{Start: 0, End: sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	if res.C2Contacts == 0 {
		t.Error("uniform barrel over a pool with registered C2 should produce contacts")
	}
	// Uniform barrel: every bot walks the same prefix; with caching, the
	// prefix is cached after the first activation, so raw queries per bot
	// are bounded by first-valid-position+1.
	pool := r.Pool(0)
	stop := len(pool.Domains)
	for i, pos := range (dga.Uniform{}).Barrel(pool, 32, sim.NewRNG(0)) {
		if pool.ValidAt(pos) {
			stop = i + 1
			break
		}
	}
	perBot := make(map[string]int)
	for _, rec := range net.Raw() {
		perBot[rec.Client]++
	}
	for bot, q := range perBot {
		if q > stop {
			t.Errorf("bot %s issued %d queries, expected at most %d", bot, q, stop)
		}
	}
}

func TestMultiEpochRegistryRollover(t *testing.T) {
	net := testNetwork()
	r, err := NewRunner(Config{
		Spec:          smallSpec(),
		Seed:          5,
		BotsPerServer: map[string]int{"local-00": 8},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(sim.Window{Start: 0, End: 3 * sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3", len(res.Epochs))
	}
	// After the run the registry holds only the final epoch's C2 set.
	if got := net.Registry.Size(); got != 2 {
		t.Errorf("registry size = %d, want 2 (θ∃)", got)
	}
	// Ground truth exists for each epoch.
	if got := len(res.ActiveBots["local-00"]); got != 3 {
		t.Errorf("per-epoch ground truth length %d, want 3", got)
	}
	var active int
	for _, n := range res.ActiveBots["local-00"] {
		active += n
	}
	if active == 0 {
		t.Error("no activity in 3 epochs")
	}
}

func TestQueriesRespectQueryInterval(t *testing.T) {
	net := testNetwork()
	spec := smallSpec()
	r, err := NewRunner(Config{
		Spec:          spec,
		Seed:          11,
		BotsPerServer: map[string]int{"local-00": 3},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(sim.Window{Start: 0, End: sim.Day}); err != nil {
		t.Fatal(err)
	}
	// Within one bot's activation, consecutive raw lookups are spaced by
	// exactly δi.
	perBot := make(map[string][]sim.Time)
	for _, rec := range net.Raw() {
		perBot[rec.Client] = append(perBot[rec.Client], rec.T)
	}
	for bot, times := range perBot {
		for i := 1; i < len(times); i++ {
			if times[i]-times[i-1] != spec.QueryInterval {
				t.Fatalf("bot %s: gap %v, want %v", bot, times[i]-times[i-1], spec.QueryInterval)
			}
		}
	}
}

func TestUniformBarrelCachingMasksLaterBots(t *testing.T) {
	// The AU phenomenon behind the Poisson estimator: bots activating
	// within the negative TTL of an earlier bot are fully absorbed by the
	// cache — their lookups never reach the border.
	net := testNetwork()
	spec := smallSpec()
	r, err := NewRunner(Config{
		Spec:          spec,
		Seed:          21,
		BotsPerServer: map[string]int{"local-00": 50},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(sim.Window{Start: 0, End: sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	obs := net.Border.Observed()
	active := res.ActiveBots["local-00"][0]
	// 50 bots × identical barrels with 2 h negative caching: far fewer
	// distinct forwarded lookups than raw ones.
	if len(obs) >= res.QueriesIssued {
		t.Errorf("caching should mask lookups: observed %d, raw %d", len(obs), res.QueriesIssued)
	}
	if active < 20 {
		t.Errorf("active bots = %d, unexpectedly low", active)
	}
}

func TestClientNamingEmbedsServer(t *testing.T) {
	net := testNetwork()
	r, err := NewRunner(Config{
		Spec:          smallSpec(),
		Seed:          13,
		BotsPerServer: map[string]int{"local-01": 4},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(sim.Window{Start: 0, End: sim.Day}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range net.Raw() {
		if !strings.HasPrefix(rec.Client, "local-01/bot-") {
			t.Fatalf("client %q not scoped to its server", rec.Client)
		}
		if rec.Server != "local-01" {
			t.Fatalf("bot homed on %q, want local-01", rec.Server)
		}
	}
}

func TestEmptyWindowRejected(t *testing.T) {
	net := testNetwork()
	r, err := NewRunner(Config{Spec: smallSpec(), BotsPerServer: map[string]int{"local-00": 1}}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(sim.Window{Start: 5, End: 5}); err == nil {
		t.Error("empty window should error")
	}
}

// TestTwoFamiliesOneNetwork is the regression for the multi-family
// ID-collision bug: dense symtab IDs are only unique per table, so two
// families whose IDs came from two tables would share registry bits and cache
// entries (false C2 contacts, false cache hits). Runners built without a pool
// cache intern into the network's one table, so both families keep their IDs
// and stay apart.
func TestTwoFamiliesOneNetwork(t *testing.T) {
	net := testNetwork()
	specA := smallSpec()
	specB := smallSpec()
	specB.Name = "TestDGA-B"
	specB.Pool = dga.DrainReplenish{NX: 40, C2: 2, Gen: dga.DefaultGenerator}

	ra, err := NewRunner(Config{Spec: specA, Seed: 31, BotsPerServer: map[string]int{"local-00": 5}}, net)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRunner(Config{Spec: specB, Seed: 32, BotsPerServer: map[string]int{"local-01": 5}}, net)
	if err != nil {
		t.Fatal(err)
	}
	w := sim.Window{Start: 0, End: sim.Day}
	for name, r := range map[string]*Runner{"A": ra, "B": rb} {
		res, err := r.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.C2Contacts == 0 {
			t.Errorf("family %s made no C2 contact", name)
		}
	}
	tab := net.Table()
	poolA, poolB := ra.Pool(0), rb.Pool(0)
	if min := len(poolA.Domains) + len(poolB.Domains); tab.Len() < min {
		t.Errorf("network table holds %d names, want at least both pools (%d)", tab.Len(), min)
	}
	// Each family ran behind its own server, so the forwarder tells whose
	// pool a record's domain must lie in.
	poolOf := map[string]*dga.Pool{"local-00": poolA, "local-01": poolB}
	for _, rec := range net.Border.Observed() {
		if rec.ID == symtab.None {
			t.Fatalf("record %+v carries no ID", rec)
		}
		if got := tab.Resolve(rec.ID); got != rec.Domain {
			t.Fatalf("record ID %d resolves to %q, record says %q", rec.ID, got, rec.Domain)
		}
		if _, ok := poolOf[rec.Server].PositionID(rec.ID); !ok {
			t.Fatalf("record %+v lies outside the pool of the family behind %s", rec, rec.Server)
		}
	}
}

// TestSecondTableRefused: a pool cache over a table other than the one the
// network is bound to is an error, not a slower path.
func TestSecondTableRefused(t *testing.T) {
	net := testNetwork()
	spec := smallSpec()
	first, second := symtab.New(), symtab.New()
	if _, err := NewRunner(Config{Spec: spec, Seed: 1, Pools: dga.NewPoolCache(spec.Pool, 1, first)}, net); err != nil {
		t.Fatal(err)
	}
	_, err := NewRunner(Config{Spec: spec, Seed: 2, Pools: dga.NewPoolCache(spec.Pool, 2, second)}, net)
	if err == nil {
		t.Fatal("a pool cache over a second table should be refused")
	}
	for _, tab := range []*symtab.Table{first, second} {
		if want := fmt.Sprintf("%p", tab); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name table %s", err, want)
		}
	}
	if _, err := NewRunner(Config{Spec: spec, Seed: 3, Pools: dga.NewPoolCache(spec.Pool, 3, nil)}, net); err == nil {
		t.Error("a pool cache without a table should be refused")
	}
}

// TestSharedTableKeepsIDs: two runners sharing one pool-cache table both
// bind, and their traffic carries that table's IDs.
func TestSharedTableKeepsIDs(t *testing.T) {
	net := testNetwork()
	tab := symtab.Get()
	defer tab.Release()
	specA := smallSpec()
	specB := smallSpec()
	specB.Name = "TestDGA-B"
	for i, spec := range []dga.Spec{specA, specB} {
		seed := uint64(41 + i)
		r, err := NewRunner(Config{
			Spec: spec, Seed: seed, BotsPerServer: map[string]int{"local-00": 3},
			Pools: dga.NewPoolCache(spec.Pool, seed, tab),
		}, net)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(sim.Window{Start: 0, End: sim.Day}); err != nil {
			t.Fatal(err)
		}
	}
	if net.Table() != tab {
		t.Fatal("network bound to the wrong table")
	}
	for _, rec := range net.Border.Observed() {
		if rec.ID == symtab.None || tab.Resolve(rec.ID) != rec.Domain {
			t.Fatalf("record %+v does not carry its domain's ID in the shared table", rec)
		}
	}
}
