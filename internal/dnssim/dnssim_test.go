package dnssim

import (
	"testing"

	"botmeter/internal/sim"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// internedCache drives a Cache by domain string: names are interned into a
// private table first, as Network.ClientQuery does at the boundary.
type internedCache struct {
	*Cache
	tab *symtab.Table
}

func newInternedCache(positiveTTL, negativeTTL sim.Time) internedCache {
	return internedCache{Cache: NewCache(positiveTTL, negativeTTL), tab: symtab.New()}
}

func (c internedCache) lookup(now sim.Time, domain string) (Answer, bool) {
	return c.LookupID(now, c.tab.Intern(domain))
}

func (c internedCache) lookupStale(now sim.Time, domain string) (Answer, bool) {
	return c.LookupStaleID(now, c.tab.Intern(domain))
}

func (c internedCache) store(now sim.Time, domain string, nx bool) {
	c.StoreID(now, c.tab.Intern(domain), nx)
}

// newSlotCache builds an unpooled cache over a slot array of the given
// (power-of-two) size, so a test can make the table rehash after a handful
// of stores instead of the 768 a NewCache table takes.
func newSlotCache(positiveTTL, negativeTTL sim.Time, slots int) *Cache {
	c := &Cache{rule: rule{positiveTTL: positiveTTL, negativeTTL: negativeTTL}}
	c.ids.adopt(make([]idEntry, slots), false)
	return c
}

func TestCacheMissHitExpiry(t *testing.T) {
	c := newInternedCache(sim.Day, 2*sim.Hour)
	if _, ok := c.lookup(0, "a.com"); ok {
		t.Fatal("empty cache should miss")
	}
	c.store(0, "a.com", true) // negative answer
	ans, ok := c.lookup(sim.Hour, "a.com")
	if !ok || !ans.NX || !ans.CacheHit {
		t.Fatalf("expected negative hit, got %+v ok=%v", ans, ok)
	}
	if _, ok := c.lookup(2*sim.Hour, "a.com"); ok {
		t.Fatal("negative entry should expire at TTL boundary")
	}
	c.store(0, "b.com", false) // positive answer
	if _, ok := c.lookup(23*sim.Hour, "b.com"); !ok {
		t.Fatal("positive entry should live for a day")
	}
	if _, ok := c.lookup(sim.Day, "b.com"); ok {
		t.Fatal("positive entry should expire after a day")
	}
}

func TestCacheDisabledTTL(t *testing.T) {
	c := newInternedCache(0, sim.Hour)
	c.store(0, "a.com", false)
	if _, ok := c.lookup(1, "a.com"); ok {
		t.Error("positive caching disabled: should miss")
	}
	c.store(0, "nx.com", true)
	if _, ok := c.lookup(1, "nx.com"); !ok {
		t.Error("negative caching still enabled: should hit")
	}
}

func TestCacheHitRate(t *testing.T) {
	c := newInternedCache(sim.Day, sim.Day)
	c.store(0, "a.com", false)
	c.lookup(1, "a.com")
	c.lookup(1, "b.com")
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

// TestCacheGrowEvicts: the table is the cache's only storage, so its rehash
// is what bounds memory — entries past expires+StaleTTL are left behind,
// counted as evictions, and the array does not double on their account.
func TestCacheGrowEvicts(t *testing.T) {
	const n = 3000
	c := NewCache(sim.Second, sim.Second)
	defer c.Release()
	c.StaleTTL = sim.Minute

	for i := 1; i <= n; i++ {
		c.StoreID(0, symtab.ID(i), true)
	}
	slots := len(c.ids.slots)
	if c.Len() != n || c.Tallies().Evictions != 0 {
		t.Fatalf("first batch: Len %d, evictions %d; want %d, 0 (nothing has expired)", c.Len(), c.Tallies().Evictions, n)
	}
	later := 10 * sim.Minute // past expiry and the stale horizon
	for i := n + 1; i <= 2*n; i++ {
		c.StoreID(later, symtab.ID(i), true)
	}
	if got := c.Len(); got != n {
		t.Errorf("Len = %d after the second batch, want %d (the first batch evicted)", got, n)
	}
	if got := c.Tallies().Evictions; got != n {
		t.Errorf("evictions = %d, want %d", got, n)
	}
	if got := len(c.ids.slots); got != slots {
		t.Errorf("slot array went %d -> %d; the survivors fit the old one", slots, got)
	}
	for _, id := range []symtab.ID{n + 1, 2 * n} {
		if ans, ok := c.LookupID(later, id); !ok || !ans.NX {
			t.Errorf("id %d lost in the evicting rehash: %+v %v", id, ans, ok)
		}
	}
	if _, ok := c.LookupID(later, 1); ok {
		t.Error("evicted entry still served")
	}
}

// TestCacheNegativeStaleTTL: a negative StaleTTL (cmd/resolver passes its
// -serve-stale flag through unchecked) means "no stale window", not an
// eviction horizon in the future that would take live entries with it.
func TestCacheNegativeStaleTTL(t *testing.T) {
	c := newSlotCache(sim.Hour, sim.Hour, 8)
	c.StaleTTL = -2 * sim.Hour
	for id := symtab.ID(1); id <= 100; id++ {
		c.StoreID(0, id, true)
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d, want 100: live entries evicted", c.Len())
	}
	for id := symtab.ID(1); id <= 100; id++ {
		if _, ok := c.LookupID(1, id); !ok {
			t.Fatalf("id %d evicted while live", id)
		}
	}
}

func newTestNetwork(locals int) *Network {
	return NewNetwork(NetworkConfig{
		LocalServers: locals,
		PositiveTTL:  sim.Day,
		NegativeTTL:  2 * sim.Hour,
		RecordRaw:    true,
	})
}

func TestCachingMasksRepeatLookups(t *testing.T) {
	n := newTestNetwork(1)
	n.Register("valid.com")
	if _, err := n.AssignClient("c1", "local-00"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AssignClient("c2", "local-00"); err != nil {
		t.Fatal(err)
	}
	// First lookup forwarded, second (other client, same domain) absorbed.
	if _, err := n.ClientQuery(0, "c1", "nx.com"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ClientQuery(sim.Minute, "c2", "nx.com"); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Border.Observed()); got != 1 {
		t.Fatalf("border saw %d lookups, want 1 (second cached)", got)
	}
	// After negative TTL the domain is queried upstream again.
	if _, err := n.ClientQuery(3*sim.Hour, "c1", "nx.com"); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Border.Observed()); got != 2 {
		t.Fatalf("border saw %d lookups, want 2 after TTL expiry", got)
	}
}

func TestAnswerCorrectness(t *testing.T) {
	n := newTestNetwork(1)
	n.Register("valid.com")
	ans, err := n.ClientQuery(0, "c1", "valid.com")
	if err != nil || ans.NX {
		t.Fatalf("valid domain should resolve: %+v, %v", ans, err)
	}
	ans, err = n.ClientQuery(0, "c1", "invalid.com")
	if err != nil || !ans.NX {
		t.Fatalf("unregistered domain should be NX: %+v, %v", ans, err)
	}
	// Cached answers preserve the NX flag.
	ans, _ = n.ClientQuery(1, "c1", "invalid.com")
	if !ans.NX {
		t.Error("cached NX answer lost its flag")
	}
}

func TestDistinctNXDsAlwaysReachBorder(t *testing.T) {
	// The Bernoulli estimator's cache-immunity rests on this invariant:
	// the FIRST lookup of each distinct domain in a window is always
	// forwarded, regardless of caching.
	n := newTestNetwork(1)
	for i := 0; i < 50; i++ {
		d := string(rune('a'+i%26)) + string(rune('a'+i/26)) + ".com"
		if _, err := n.ClientQuery(sim.Time(i)*sim.Second, "c1", d); err != nil {
			t.Fatal(err)
		}
		if _, err := n.ClientQuery(sim.Time(i)*sim.Second+1, "c2", d); err != nil {
			t.Fatal(err)
		}
	}
	domains := n.Border.Observed().Domains()
	if len(domains) != 50 {
		t.Errorf("border saw %d distinct domains, want 50", len(domains))
	}
}

func TestObservedIsCacheFilteredSubsetOfRaw(t *testing.T) {
	n := newTestNetwork(2)
	n.Register("good.com")
	domains := []string{"good.com", "bad1.com", "bad2.com", "bad1.com", "good.com"}
	clients := []string{"c1", "c2", "c3", "c1", "c2"}
	for i := range domains {
		if _, err := n.ClientQuery(sim.Time(i)*sim.Second, clients[i], domains[i]); err != nil {
			t.Fatal(err)
		}
	}
	raw := n.Raw()
	obs := n.Border.Observed()
	if len(obs) > len(raw) {
		t.Fatalf("observed (%d) cannot exceed raw (%d)", len(obs), len(raw))
	}
	// Every observed record corresponds to a raw record at the same time
	// for the same domain.
	type key struct {
		t sim.Time
		d string
	}
	rawSet := make(map[key]bool)
	for _, r := range raw {
		rawSet[key{r.T, r.Domain}] = true
	}
	for _, o := range obs {
		if !rawSet[key{o.T, o.Domain}] {
			t.Errorf("observed record %+v has no raw counterpart", o)
		}
	}
}

func TestClientHomingDeterministic(t *testing.T) {
	n1 := newTestNetwork(4)
	n2 := newTestNetwork(4)
	for _, c := range []string{"10.0.0.1", "10.0.0.2", "10.9.9.9"} {
		if _, err := n1.ClientQuery(0, c, "x.com"); err != nil {
			t.Fatal(err)
		}
		if _, err := n2.ClientQuery(0, c, "x.com"); err != nil {
			t.Fatal(err)
		}
		h1, h2 := n1.Client(c).Home.ID, n2.Client(c).Home.ID
		if h1 != h2 {
			t.Errorf("client %s homed differently: %s vs %s", c, h1, h2)
		}
		if raw := n1.Raw(); raw[len(raw)-1].Server != h1 {
			t.Errorf("client %s queried through %s, its handle names %s", c, raw[len(raw)-1].Server, h1)
		}
	}
}

func TestAssignClientValidation(t *testing.T) {
	n := newTestNetwork(2)
	if _, err := n.AssignClient("c", "local-99"); err == nil {
		t.Error("assigning to unknown server should error")
	}
	c, err := n.AssignClient("c", "local-01")
	if err != nil {
		t.Fatal(err)
	}
	local, _ := n.Local("local-01")
	if c.Name != "c" || c.Home != local {
		t.Errorf("handle = %q on %p, want \"c\" on local-01 (%p)", c.Name, c.Home, local)
	}
	if got := n.Client("c"); got != c {
		t.Errorf("Client(\"c\") = %+v, want the assigned handle %+v", got, c)
	}
	if _, err := n.Query(0, c, "nx.com", n.Table().Intern("nx.com")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ClientQuery(1, "c", "other.com"); err != nil {
		t.Fatal(err)
	}
	for _, rec := range n.Raw() {
		if rec.Client != "c" || rec.Server != "local-01" {
			t.Errorf("raw record %+v, want client c on local-01", rec)
		}
	}
	if _, err := n.Query(2, Client{Name: "stray"}, "nx.com", n.Table().Intern("nx.com")); err == nil {
		t.Error("a handle without a home server should be refused")
	}
}

func TestSeparateLocalServerCaches(t *testing.T) {
	n := newTestNetwork(2)
	if _, err := n.AssignClient("c1", "local-00"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AssignClient("c2", "local-01"); err != nil {
		t.Fatal(err)
	}
	n.ClientQuery(0, "c1", "nx.com")
	n.ClientQuery(1, "c2", "nx.com")
	// Different local caches: both lookups reach the border.
	if got := len(n.Border.Observed()); got != 2 {
		t.Errorf("border saw %d lookups, want 2 (separate caches)", got)
	}
	byServer := map[string]int{}
	for _, rec := range n.Border.Observed() {
		byServer[rec.Server]++
	}
	if byServer["local-00"] != 1 || byServer["local-01"] != 1 {
		t.Errorf("per-server attribution wrong: %v", byServer)
	}
}

func TestMidTierHierarchy(t *testing.T) {
	n := NewNetwork(NetworkConfig{
		LocalServers: 4,
		MidTierFanIn: 2,
		PositiveTTL:  sim.Day,
		NegativeTTL:  2 * sim.Hour,
	})
	if _, err := n.AssignClient("c1", "local-00"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AssignClient("c2", "local-01"); err != nil {
		t.Fatal(err)
	}
	// local-00 and local-01 share mid-00; the second lookup of the same
	// domain through a different local server is absorbed by the mid-tier.
	n.ClientQuery(0, "c1", "nx.com")
	n.ClientQuery(1, "c2", "nx.com")
	obs := n.Border.Observed()
	if len(obs) != 1 {
		t.Fatalf("border saw %d lookups, want 1 (mid-tier absorbs)", len(obs))
	}
	// The border records the mid-tier as the forwarder.
	if obs[0].Server != "mid-00" {
		t.Errorf("forwarder = %q, want mid-00", obs[0].Server)
	}
}

func TestBorderGranularity(t *testing.T) {
	n := NewNetwork(NetworkConfig{
		LocalServers: 1,
		PositiveTTL:  sim.Day,
		NegativeTTL:  sim.Hour,
		Granularity:  sim.Second,
	})
	n.ClientQuery(1234, "c1", "nx.com")
	obs := n.Border.Observed()
	if len(obs) != 1 || obs[0].T != 1000 {
		t.Errorf("granularity truncation failed: %+v", obs)
	}
}

func TestRegistryUnregister(t *testing.T) {
	const a, b = symtab.ID(1), symtab.ID(200)
	r := NewRegistry()
	r.RegisterIDs([]symtab.ID{a, b, a, symtab.None})
	if r.Size() != 2 || !r.resolvesID(a) || r.resolvesID(symtab.None) {
		t.Fatal("register failed")
	}
	r.UnregisterIDs([]symtab.ID{a, a, 999})
	if r.resolvesID(a) || !r.resolvesID(b) || r.Size() != 1 {
		t.Error("unregister failed")
	}
}

// TestBindTable pins the single-table contract: a network adopts the first
// table, accepts it again, and refuses any other — including after an ad-hoc
// ClientQuery made it create its own.
func TestBindTable(t *testing.T) {
	a, b := symtab.New(), symtab.New()
	n := newTestNetwork(1)
	if err := n.BindTable(nil); err == nil {
		t.Error("binding a nil table should fail")
	}
	if err := n.BindTable(a); err != nil {
		t.Fatalf("first bind: %v", err)
	}
	if err := n.BindTable(a); err != nil {
		t.Errorf("re-binding the bound table: %v", err)
	}
	if err := n.BindTable(b); err == nil {
		t.Error("binding a second table should fail")
	}
	if n.Table() != a {
		t.Error("Table() is not the bound table")
	}

	n = newTestNetwork(1)
	if _, err := n.ClientQuery(0, "c1", "nx.com"); err != nil {
		t.Fatal(err)
	}
	if err := n.BindTable(a); err == nil {
		t.Error("a string ClientQuery gave the network its own table; binding another should fail")
	}
	if rec := n.Border.Observed()[0]; rec.ID == symtab.None || n.Table().Resolve(rec.ID) != "nx.com" {
		t.Errorf("observed record %+v does not carry nx.com's ID in the network's table", rec)
	}
	if _, err := n.Query(1, n.Client("c1"), "other.com", symtab.None); err == nil {
		t.Error("a query without an interned ID should be refused")
	}
}

// TestBorderSink: a border with a Sink hands it every forwarded lookup, in
// emission order, and keeps no dataset of its own.
func TestBorderSink(t *testing.T) {
	n := newTestNetwork(1)
	var got []trace.ObservedRecord
	n.Border.Sink = func(rec trace.ObservedRecord) { got = append(got, rec) }
	n.ClientQuery(0, "c1", "nx.com")
	n.ClientQuery(1, "c1", "nx.com") // a cache hit: never forwarded
	n.ClientQuery(2, "c2", "other.com")
	if len(got) != 2 || got[0].Domain != "nx.com" || got[1].Domain != "other.com" || got[1].T != 2 || got[0].ID == symtab.None {
		t.Errorf("sink got %+v, want nx.com at 0 then other.com at 2, with IDs", got)
	}
	if obs := n.Border.Observed(); len(obs) != 0 {
		t.Errorf("a border with a sink kept %d records", len(obs))
	}
}

func TestServerStats(t *testing.T) {
	n := newTestNetwork(1)
	n.ClientQuery(0, "c1", "nx.com")
	n.ClientQuery(1, "c1", "nx.com")
	srv, _ := n.Local("local-00")
	q, f := srv.Stats()
	if q != 2 || f != 1 {
		t.Errorf("stats = %d queries, %d forwarded; want 2, 1", q, f)
	}
	if srv.CacheHitRate() != 0.5 {
		t.Errorf("hit rate = %v", srv.CacheHitRate())
	}
}
