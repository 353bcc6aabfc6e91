package dnssim

import (
	"testing"

	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// flakyUpstream fails (ServFail) while failing is true, otherwise answers
// NX for unregistered names, counting every resolve it sees.
type flakyUpstream struct {
	failing    bool
	failsLeft  int // when > 0, fail this many resolves then recover
	registered map[string]bool
	resolves   int
}

func (u *flakyUpstream) Resolve(now sim.Time, forwarder, domain string, _ symtab.ID) Answer {
	u.resolves++
	if u.failsLeft > 0 {
		u.failsLeft--
		return Answer{ServFail: true}
	}
	if u.failing {
		return Answer{ServFail: true}
	}
	return Answer{NX: !u.registered[domain]}
}

// The servers under test are keyed by ID; flakyUpstream answers by name.
const (
	c2ID   symtab.ID = 1
	goneID symtab.ID = 2
)

func TestServerRetriesAbsorbTransientFailure(t *testing.T) {
	up := &flakyUpstream{failsLeft: 2, registered: map[string]bool{"c2.example": true}}
	s := NewServer("local-00", sim.Day, sim.Hour, up)
	s.MaxRetries = 3

	ans := s.Query(0, "c2.example", c2ID)
	if ans.ServFail || ans.NX {
		t.Fatalf("answer = %+v, want recovered positive", ans)
	}
	if up.resolves != 3 {
		t.Errorf("upstream saw %d resolves, want 3 (1 + 2 retries)", up.resolves)
	}
	retried, servfails, _ := s.ResilienceStats()
	if retried != 2 || servfails != 0 {
		t.Errorf("retried=%d servfails=%d, want 2, 0", retried, servfails)
	}
	// The recovered answer must have been cached.
	if ans := s.Query(1, "c2.example", c2ID); !ans.CacheHit {
		t.Errorf("recovered answer not cached: %+v", ans)
	}
}

func TestServerExhaustedRetriesServFailUncached(t *testing.T) {
	up := &flakyUpstream{failing: true}
	s := NewServer("local-00", sim.Day, sim.Hour, up)
	s.MaxRetries = 2

	if ans := s.Query(0, "gone.example", goneID); !ans.ServFail {
		t.Fatalf("answer = %+v, want ServFail", ans)
	}
	if up.resolves != 3 {
		t.Errorf("upstream saw %d resolves, want 3", up.resolves)
	}
	_, servfails, _ := s.ResilienceStats()
	if servfails != 1 {
		t.Errorf("servfails = %d, want 1", servfails)
	}
	// A ServFail must never be cached: the next query forwards again.
	up.failing = false
	if ans := s.Query(1, "gone.example", goneID); ans.ServFail || ans.CacheHit {
		t.Errorf("post-recovery answer = %+v, want fresh resolve", ans)
	}
}

func TestServerServeStale(t *testing.T) {
	up := &flakyUpstream{registered: map[string]bool{"c2.example": true}}
	s := NewServer("local-00", sim.Second, sim.Second, up)
	s.ServeStale = true
	s.cache.StaleTTL = sim.Hour

	// Prime, then let the entry expire and kill the upstream.
	if ans := s.Query(0, "c2.example", c2ID); ans.ServFail {
		t.Fatalf("priming failed: %+v", ans)
	}
	up.failing = true
	ans := s.Query(2*sim.Second, "c2.example", c2ID)
	if ans.ServFail || !ans.Stale || !ans.CacheHit || ans.NX {
		t.Fatalf("stale answer = %+v, want Stale positive CacheHit", ans)
	}
	_, servfails, staleServed := s.ResilienceStats()
	if staleServed != 1 || servfails != 0 {
		t.Errorf("staleServed=%d servfails=%d, want 1, 0", staleServed, servfails)
	}

	// Beyond the stale horizon even RFC 8767 gives up.
	if ans := s.Query(2*sim.Second+2*sim.Hour, "c2.example", c2ID); !ans.ServFail {
		t.Errorf("past StaleTTL: %+v, want ServFail", ans)
	}

	// With serve-stale off, the same expiry surfaces the failure at once.
	s2 := NewServer("local-01", sim.Second, sim.Second, up)
	up.failing = false
	s2.Query(0, "c2.example", c2ID)
	up.failing = true
	if ans := s2.Query(2*sim.Second, "c2.example", c2ID); !ans.ServFail {
		t.Errorf("without serve-stale: %+v, want ServFail", ans)
	}
}

func TestCacheLookupStale(t *testing.T) {
	c := newInternedCache(sim.Second, sim.Second)
	c.StaleTTL = sim.Minute
	c.store(0, "a.example", false)
	c.store(0, "nx.example", true)

	// Fresh: normal lookup wins, not stale.
	if ans, ok := c.lookup(500*sim.Millisecond, "a.example"); !ok || ans.Stale {
		t.Errorf("fresh lookup = %+v, %v", ans, ok)
	}
	// Expired but within StaleTTL: Lookup misses, LookupStale hits.
	if _, ok := c.lookup(2*sim.Second, "a.example"); ok {
		t.Error("expired entry served as fresh")
	}
	ans, ok := c.lookupStale(2*sim.Second, "a.example")
	if !ok || !ans.Stale || !ans.CacheHit || ans.NX {
		t.Errorf("stale positive = %+v, %v", ans, ok)
	}
	if ans, ok := c.lookupStale(2*sim.Second, "nx.example"); !ok || !ans.NX {
		t.Errorf("stale negative = %+v, %v", ans, ok)
	}
	// Beyond the stale horizon: gone.
	if _, ok := c.lookupStale(2*sim.Minute, "a.example"); ok {
		t.Error("entry served beyond StaleTTL")
	}
	// Unknown domain: no stale answer.
	if _, ok := c.lookupStale(0, "never.example"); ok {
		t.Error("stale answer for a domain never stored")
	}
}

// TestNetworkResilienceConfig verifies NewNetwork plumbs the knobs into
// every tier and that WrapUpstream sees the border exactly once.
func TestNetworkResilienceConfig(t *testing.T) {
	var wrapped int
	n := NewNetwork(NetworkConfig{
		LocalServers: 4,
		MidTierFanIn: 2,
		PositiveTTL:  sim.Hour,
		NegativeTTL:  sim.Hour,
		MaxRetries:   3,
		ServeStale:   true,
		StaleTTL:     sim.Day,
		WrapUpstream: func(u Upstream) Upstream {
			wrapped++
			return u
		},
	})
	if wrapped != 1 {
		t.Errorf("WrapUpstream called %d times, want 1", wrapped)
	}
	for _, id := range n.LocalIDs() {
		s, ok := n.Local(id)
		if !ok {
			t.Fatalf("missing local %s", id)
		}
		if s.MaxRetries != 3 || !s.ServeStale || s.Cache().StaleTTL != sim.Day {
			t.Errorf("%s not hardened: retries=%d stale=%v ttl=%v", id, s.MaxRetries, s.ServeStale, s.Cache().StaleTTL)
		}
	}
}
