package dnssim

import (
	"fmt"
	"time"

	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// Registry is the authoritative name space: the set of domains that
// currently resolve (registered C2 domains plus the benign zone), held as a
// bitset over the interned IDs of the network's table. Everything else
// returns NXDomain. Callers holding strings register through
// Network.Register, which interns them first.
type Registry struct {
	// bits is a growable bitset indexed by symtab ID.
	bits []uint64
	size int
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterIDs marks the domains behind ids as resolving. symtab.None is
// ignored.
func (r *Registry) RegisterIDs(ids []symtab.ID) {
	for _, id := range ids {
		if id == symtab.None || r.ResolvesID(id) {
			continue
		}
		w := int(id >> 6)
		for len(r.bits) <= w {
			r.bits = append(r.bits, 0)
		}
		r.bits[w] |= 1 << (id & 63)
		r.size++
	}
}

// UnregisterIDs removes domains (a takedown or expiry).
func (r *Registry) UnregisterIDs(ids []symtab.ID) {
	for _, id := range ids {
		if r.ResolvesID(id) {
			r.bits[id>>6] &^= 1 << (id & 63)
			r.size--
		}
	}
}

// ResolvesID reports whether the domain behind id currently resolves.
func (r *Registry) ResolvesID(id symtab.ID) bool {
	w := int(id >> 6)
	return w < len(r.bits) && r.bits[w]&(1<<(id&63)) != 0
}

// Size returns the number of registered domains.
func (r *Registry) Size() int { return r.size }

// Upstream resolves queries forwarded by a downstream server. The forwarder
// argument names the immediate child doing the forwarding, which is what a
// vantage point records. A query is the pair (domain, id): id is the
// domain's interned ID in the network's table and keys every cache and the
// registry; the string rides along only so the vantage point can record the
// real name without resolving it back per record.
type Upstream interface {
	Resolve(now sim.Time, forwarder, domain string, id symtab.ID) Answer
}

// Border is the border DNS server and vantage point: it answers from the
// registry and records every forwarded lookup it receives as the observable
// dataset. Timestamps are coarsened to Granularity (0 = full fidelity).
type Border struct {
	ID          string
	Granularity sim.Time
	// Sink, when set, receives each observed record as the border records
	// it, in emission order, in place of the border's own dataset: Observed
	// stays empty. A simulated trial points it at its analysis, so the
	// trace is never built.
	Sink func(trace.ObservedRecord)

	registry *Registry
	// The observable dataset accumulates in fixed-size chunks
	// (trace.Builder) rather than one append-grown slice: at multi-million-
	// record scale, slice growth re-copies the whole prefix repeatedly and
	// leaves the stale arrays to the GC. Observed flattens once on demand
	// and caches the result until the next record arrives.
	observed     trace.Builder
	observedFlat trace.Observed // cached flatten; nil after any append
	observedCtr  *obs.Counter
}

// NewBorder builds a border server over the given registry.
func NewBorder(id string, registry *Registry) *Border {
	return &Border{ID: id, registry: registry}
}

// Resolve implements Upstream: record, then answer authoritatively. The
// observed record keeps the real domain string (what a trace file holds) and
// carries the ID for in-process consumers.
func (b *Border) Resolve(now sim.Time, forwarder, domain string, id symtab.ID) Answer {
	b.observedCtr.Inc()
	rec := trace.ObservedRecord{
		T:      now.Truncate(b.Granularity),
		Server: forwarder,
		Domain: domain,
		ID:     id,
	}
	if b.Sink != nil {
		b.Sink(rec)
	} else {
		b.observed.Append(rec)
		b.observedFlat = nil
	}
	return Answer{NX: !b.registry.ResolvesID(id)}
}

// Observed returns the vantage-point dataset collected so far as one
// contiguous slice (flattened once and cached; records keep their emission
// order). Callers must treat the result as read-only up to its length —
// appending to it is safe, mutating elements would corrupt the cache.
func (b *Border) Observed() trace.Observed {
	if b.observedFlat == nil && b.observed.Len() > 0 {
		b.observedFlat = b.observed.Build()
	}
	return b.observedFlat
}

// Server is a caching-and-forwarding DNS server. It serves answers from its
// cache and forwards misses to its upstream — a Border or another Server
// (mid-tier), enabling arbitrary-depth hierarchies. Resilience knobs
// (MaxRetries, ServeStale) govern how it degrades when the upstream fails;
// by default a failed resolve is surfaced as a ServFail answer, uncached.
type Server struct {
	ID string

	// MaxRetries is how many times a ServFail resolve is re-attempted
	// before giving up (0 = single attempt, the pre-hardening behaviour).
	MaxRetries int
	// ServeStale answers from expired cache entries (within the cache's
	// StaleTTL) when every attempt fails — RFC 8767 graceful degradation.
	ServeStale bool

	cache    *Cache
	upstream Upstream

	queries     int
	forwarded   int
	retried     int
	servfails   int
	staleServed int

	// m holds the optional obs instruments (see Instrument); the zero
	// value is disabled and costs one branch per event.
	m serverMetrics
}

// NewServer builds a caching server with the given TTLs and upstream.
func NewServer(id string, positiveTTL, negativeTTL sim.Time, upstream Upstream) *Server {
	return &Server{ID: id, cache: NewCache(positiveTTL, negativeTTL), upstream: upstream}
}

// Cache exposes the server's cache (to configure StaleTTL, inspect hit
// rates, …).
func (s *Server) Cache() *Cache { return s.cache }

// Query handles a client lookup of (domain, id) at virtual time now and
// returns the answer the client sees. The cache is keyed by id; the domain
// string is only forwarded.
func (s *Server) Query(now sim.Time, domain string, id symtab.ID) Answer {
	s.queries++
	s.m.queries.Inc()
	// The latency histogram is the one instrument that would make the
	// disabled path pay for a clock read, so it is guarded explicitly.
	if s.m.latency != nil {
		defer s.m.observeLatency(time.Now())
	}
	if ans, ok := s.cache.LookupID(now, id); ok {
		return ans
	}
	s.forwarded++
	s.m.forwarded.Inc()
	ans := s.upstream.Resolve(now, s.ID, domain, id)
	for attempt := 0; ans.ServFail && attempt < s.MaxRetries; attempt++ {
		s.retried++
		s.m.retried.Inc()
		ans = s.upstream.Resolve(now, s.ID, domain, id)
	}
	if ans.ServFail {
		if s.ServeStale {
			if stale, ok := s.cache.LookupStaleID(now, id); ok {
				s.staleServed++
				s.m.staleServed.Inc()
				return stale
			}
		}
		s.servfails++
		s.m.servfails.Inc()
		return Answer{ServFail: true}
	}
	s.cache.StoreID(now, id, ans.NX)
	return Answer{NX: ans.NX}
}

// Resolve implements Upstream so a Server can act as a mid-tier: a miss is
// forwarded upward under this server's own identity.
func (s *Server) Resolve(now sim.Time, _ string, domain string, id symtab.ID) Answer {
	ans := s.Query(now, domain, id)
	ans.CacheHit = false
	return ans
}

// Stats reports query and forward counters.
func (s *Server) Stats() (queries, forwarded int) { return s.queries, s.forwarded }

// ResilienceStats reports the degradation counters: upstream retries,
// client-visible SERVFAILs and stale answers served.
func (s *Server) ResilienceStats() (retried, servfails, staleServed int) {
	return s.retried, s.servfails, s.staleServed
}

// CacheHitRate exposes the underlying cache hit rate.
func (s *Server) CacheHitRate() float64 { return s.cache.HitRate() }

// Network wires a complete two- or three-level hierarchy: a border server
// plus a set of local servers (optionally behind mid-tier servers) and a
// client→local-server assignment.
type Network struct {
	Border   *Border
	Registry *Registry

	locals      map[string]*Server
	localOrder  []string
	mids        []*Server
	homes       map[string]*Server // client name → home local server
	rawRecorder trace.Raw
	recordRaw   bool

	// tab is the one intern table every ID in this network comes from (see
	// BindTable): symtab IDs are only unique within one table, and the
	// registry bitset and every tier's cache are keyed by them.
	tab *symtab.Table
}

// NetworkConfig sizes a simulated network.
type NetworkConfig struct {
	// LocalServers is the number of local DNS servers.
	LocalServers int
	// MidTierFanIn, when > 0, inserts one mid-tier caching server per
	// MidTierFanIn local servers (three-level hierarchy).
	MidTierFanIn int
	// PositiveTTL and NegativeTTL configure every cache in the hierarchy.
	PositiveTTL, NegativeTTL sim.Time
	// Granularity coarsens vantage-point timestamps (0 = none).
	Granularity sim.Time
	// RecordRaw captures the client-level raw dataset (ground truth).
	RecordRaw bool
	// WrapUpstream, when set, decorates the border before wiring it to the
	// downstream tiers — the hook through which faults.NewFaultyUpstream
	// injects a degraded local→border link without dnssim depending on the
	// faults package.
	WrapUpstream func(Upstream) Upstream
	// MaxRetries / ServeStale / StaleTTL configure every caching server's
	// resilience policy (see Server and Cache.StaleTTL).
	MaxRetries int
	ServeStale bool
	StaleTTL   sim.Time
	// Obs, when non-nil, instruments every tier of the hierarchy on the
	// registry: per-level query/cache/degradation counters, per-level
	// wall-latency histograms and the border's observed-lookup counter.
	// Nil (the default) keeps the query hot path instrument-free.
	Obs *obs.Registry
}

// NewNetwork builds the hierarchy. Local servers are named "local-00",
// "local-01", …; mid-tiers "mid-00", ….
func NewNetwork(cfg NetworkConfig) *Network {
	if cfg.LocalServers <= 0 {
		cfg.LocalServers = 1
	}
	registry := NewRegistry()
	border := NewBorder("border", registry)
	border.Granularity = cfg.Granularity
	if cfg.Obs != nil {
		border.Instrument(cfg.Obs)
	}
	n := &Network{
		Border:    border,
		Registry:  registry,
		locals:    make(map[string]*Server, cfg.LocalServers),
		homes:     make(map[string]*Server),
		recordRaw: cfg.RecordRaw,
	}
	var upstreamBorder Upstream = border
	if cfg.WrapUpstream != nil {
		upstreamBorder = cfg.WrapUpstream(border)
	}
	harden := func(s *Server) *Server {
		s.MaxRetries = cfg.MaxRetries
		s.ServeStale = cfg.ServeStale
		s.cache.StaleTTL = cfg.StaleTTL
		return s
	}
	var mids []*Server
	if cfg.MidTierFanIn > 0 {
		numMid := (cfg.LocalServers + cfg.MidTierFanIn - 1) / cfg.MidTierFanIn
		for i := 0; i < numMid; i++ {
			mid := harden(NewServer(fmt.Sprintf("mid-%02d", i), cfg.PositiveTTL, cfg.NegativeTTL, upstreamBorder))
			if cfg.Obs != nil {
				mid.Instrument(cfg.Obs, "mid")
			}
			mids = append(mids, mid)
		}
	}
	n.mids = mids
	for i := 0; i < cfg.LocalServers; i++ {
		id := fmt.Sprintf("local-%02d", i)
		up := upstreamBorder
		if len(mids) > 0 {
			up = mids[i/cfg.MidTierFanIn]
		}
		local := harden(NewServer(id, cfg.PositiveTTL, cfg.NegativeTTL, up))
		if cfg.Obs != nil {
			local.Instrument(cfg.Obs, "local")
		}
		n.locals[id] = local
		n.localOrder = append(n.localOrder, id)
	}
	return n
}

// BindTable makes tab the network's intern table. Dense symtab IDs are only
// unique within one table, so everything that carries IDs into one hierarchy
// (registrations, client queries) must draw them from a single table —
// otherwise two families' unrelated domains could share a uint32 and with it
// cache entries and registry bits. BindTable adopts tab when the network has
// no table yet, is a no-op for the table already bound, and returns an error
// for any other.
func (n *Network) BindTable(tab *symtab.Table) error {
	switch {
	case tab == nil:
		return fmt.Errorf("dnssim: BindTable: nil intern table")
	case n.tab == nil:
		n.tab = tab
	case n.tab != tab:
		return fmt.Errorf("dnssim: network is bound to intern table %p, cannot bind %p: all IDs in one network must come from one table", n.tab, tab)
	}
	return nil
}

// Table returns the network's intern table. A network nothing was bound to
// gets a private table on first use (and from then on refuses any other).
func (n *Network) Table() *symtab.Table {
	if n.tab == nil {
		n.tab = symtab.New()
	}
	return n.tab
}

// Register interns domains into the network's table and marks them as
// resolving. It returns their IDs, parallel to domains, for callers that go
// on to query them with Query.
func (n *Network) Register(domains ...string) []symtab.ID {
	tab := n.Table()
	ids := make([]symtab.ID, len(domains))
	for i, d := range domains {
		ids[i] = tab.Intern(d)
	}
	n.Registry.RegisterIDs(ids)
	return ids
}

// LocalIDs returns the local server names in creation order.
func (n *Network) LocalIDs() []string {
	out := make([]string, len(n.localOrder))
	copy(out, n.localOrder)
	return out
}

// Local returns the named local server.
func (n *Network) Local(id string) (*Server, bool) {
	s, ok := n.locals[id]
	return s, ok
}

// Client is a client homed on a local server: its name, which the raw
// dataset records, and the server its lookups go through. A handle is what
// a caller that queries repeatedly holds, so no lookup pays for finding the
// client's home.
type Client struct {
	Name string
	Home *Server
}

// AssignClient homes a client on a local server and returns its handle;
// later lookups by name (ClientQuery) go through the same server.
func (n *Network) AssignClient(client, localID string) (Client, error) {
	srv, ok := n.locals[localID]
	if !ok {
		return Client{}, fmt.Errorf("dnssim: unknown local server %q", localID)
	}
	n.homes[client] = srv
	return Client{Name: client, Home: srv}, nil
}

// Client returns the handle of a client by name. A client never assigned is
// homed deterministically by hash, once.
func (n *Network) Client(name string) Client {
	srv, ok := n.homes[name]
	if !ok {
		srv = n.locals[n.localOrder[fnv32(name)%uint32(len(n.localOrder))]]
		n.homes[name] = srv
	}
	return Client{Name: name, Home: srv}
}

// ClientQuery issues a lookup of an ad-hoc name from a client named by
// string (see Client for how it is homed): the name is interned into the
// network's table here, at the boundary, and travels as a (domain, id) pair
// from then on. Callers that hold a handle and the ID (pool domains,
// Register's result) use Query.
func (n *Network) ClientQuery(now sim.Time, client, domain string) (Answer, error) {
	return n.Query(now, n.Client(client), domain, n.Table().Intern(domain))
}

// Query issues a lookup of (domain, id) from c through its home local
// server; id must be domain's ID in the network's table. Every client
// lookup takes this path.
func (n *Network) Query(now sim.Time, c Client, domain string, id symtab.ID) (Answer, error) {
	if id == symtab.None {
		return Answer{}, fmt.Errorf("dnssim: query for %q carries no interned ID", domain)
	}
	if c.Home == nil {
		return Answer{}, fmt.Errorf("dnssim: client %q has no home server", c.Name)
	}
	ans := c.Home.Query(now, domain, id)
	if n.recordRaw {
		n.rawRecorder = append(n.rawRecorder, trace.RawRecord{
			T: now, Client: c.Name, Server: c.Home.ID, Domain: domain, NX: ans.NX,
		})
	}
	return ans, nil
}

// Raw returns the recorded client-level dataset (empty unless RecordRaw).
func (n *Network) Raw() trace.Raw { return n.rawRecorder }

// ReleaseCaches returns every tier's cache storage to the shared pool.
// Call it once a simulation is done and the hierarchy will not answer
// further queries (the servers stay usable, but their caches start cold).
// Experiment trials call this once the bots have run so the next trial's
// hierarchy reuses the grown tables instead of reallocating.
func (n *Network) ReleaseCaches() {
	for _, id := range n.localOrder {
		n.locals[id].cache.Release()
	}
	for _, mid := range n.mids {
		mid.cache.Release()
	}
}

// fnv32 is a small deterministic hash for default client homing.
func fnv32(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}
