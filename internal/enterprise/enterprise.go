// Package enterprise synthesises the paper's §V-B real-world dataset: a
// year-scale DNS trace of a large enterprise sub-network (22.5K IPs, ≈15K
// active per day) served by one local caching DNS server that forwards
// misses to a border server, with second-granularity timestamps. Benign
// load follows a Zipf popularity law over a fixed benign zone; infected
// sub-populations of configurable DGA families are overlaid with
// day-to-day-varying active counts. The generator produces the observable
// dataset (what BotMeter sees) and the per-day ground-truth active-bot
// counts per family (what the paper derives from the raw dataset).
//
// This is the documented substitution for the proprietary IBM trace — see
// DESIGN.md §6: the estimators consume only the cache-filtered DGA-matched
// sub-stream, so what must be faithful is the activation process, cache
// interaction, timestamp coarseness and background noise, all of which are
// reproduced here.
package enterprise

import (
	"fmt"
	"math"
	"sort"

	"botmeter/internal/botnet"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/sim"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// Infection describes one DGA family present in the network.
type Infection struct {
	// Spec is the DGA family.
	Spec dga.Spec
	// Seed drives the family's pools and barrels.
	Seed uint64
	// MeanActive is the average number of active bots per day.
	MeanActive float64
	// Volatility is the standard deviation of the day-to-day log-population
	// random walk (0 = constant mean).
	Volatility float64
	// ReactivateEvery, when positive, makes bots that failed to reach a C2
	// server loop: they retry the same barrel after this back-off, as real
	// crimeware does. Inflates lookup volume without changing the daily
	// ground truth (distinct bots).
	ReactivateEvery sim.Time
}

// Config sizes the synthetic enterprise.
type Config struct {
	// Days is the trace length in epochs.
	Days int
	// Seed drives all benign and scheduling randomness.
	Seed uint64
	// BenignClients is the number of distinct benign client IPs active per
	// day (the paper's network has ≈15K; tests use far fewer).
	BenignClients int
	// BenignLookupsPerClient is the mean number of benign lookups each
	// active client issues per day.
	BenignLookupsPerClient float64
	// BenignZoneSize is the number of distinct benign domains, ranked by
	// Zipf popularity.
	BenignZoneSize int
	// PositiveTTL, NegativeTTL configure the local server cache.
	PositiveTTL, NegativeTTL sim.Time
	// Granularity coarsens vantage-point timestamps (paper: 1 s).
	Granularity sim.Time
	// DHCPChurn re-assigns benign client IPs daily, as wireless DHCP leases
	// do in the paper's enterprise (its footnote notes IP–MAC bindings are
	// only valid within a one-day window — the reason all ground truth is
	// counted per day).
	DHCPChurn bool
	// Infections lists the DGA families present.
	Infections []Infection
}

// WithDefaults fills unset fields with the paper's §V-B setting scaled to
// a tractable size.
func (c Config) WithDefaults() Config {
	if c.Days <= 0 {
		c.Days = 30
	}
	if c.BenignClients <= 0 {
		c.BenignClients = 300
	}
	if c.BenignLookupsPerClient <= 0 {
		c.BenignLookupsPerClient = 20
	}
	if c.BenignZoneSize <= 0 {
		c.BenignZoneSize = 2000
	}
	if c.PositiveTTL <= 0 {
		c.PositiveTTL = sim.Day
	}
	if c.NegativeTTL <= 0 {
		c.NegativeTTL = 2 * sim.Hour
	}
	if c.Granularity <= 0 {
		c.Granularity = sim.Second
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for i, inf := range c.Infections {
		if err := inf.Spec.Validate(); err != nil {
			return fmt.Errorf("enterprise: infection %d: %w", i, err)
		}
		if inf.MeanActive < 0 || inf.Volatility < 0 {
			return fmt.Errorf("enterprise: infection %d: negative parameters", i)
		}
	}
	return nil
}

// Trace is the generated dataset bundle.
type Trace struct {
	// Observed is the border-server dataset: benign cache misses plus
	// DGA-triggered lookups, sorted by (truncated) timestamp.
	Observed trace.Observed
	// GroundTruth maps family name to the daily active-bot counts.
	GroundTruth map[string][]int
	// Days is the number of epochs generated.
	Days int
	// LocalServer is the single forwarding server's identifier.
	LocalServer string
	// Pools maps family name to the pool cache its runners used while
	// generating the trace. Analysis passes the same cache to
	// core.Config.Pools so matched records take the domain-ID fast paths;
	// nil-safe (analysing without it just falls back to string matching).
	Pools map[string]*dga.PoolCache

	tab *symtab.Table
}

// Close recycles the trace's intern table. Call after all analysis over
// the trace (and its Pools) has finished; safe to call more than once.
func (t *Trace) Close() {
	if t.tab != nil {
		t.tab.Release()
		t.tab = nil
	}
}

// Generate builds the trace.
func Generate(cfg Config) (*Trace, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net := dnssim.NewNetwork(dnssim.NetworkConfig{
		LocalServers: 1,
		PositiveTTL:  cfg.PositiveTTL,
		NegativeTTL:  cfg.NegativeTTL,
		Granularity:  cfg.Granularity,
	})
	const local = "local-00"

	// One trace-wide intern table, bound before the first query: the benign
	// zone and every family's pools intern into it, so each record of the
	// trace carries an ID of this table (a name two families — or a family
	// and the benign zone — share gets one ID, keeping the per-family
	// matchers exact).
	tab := symtab.Get()
	_ = net.BindTable(tab) // nothing is bound yet: a new network adopts any table

	// Benign zone: all registered (and interned, once), popularity
	// Zipf-ranked.
	benignRNG := sim.SplitFrom(cfg.Seed, 0xbe9)
	benign := benignDomains(cfg.BenignZoneSize)
	benignIDs := net.Register(benign...)

	// Benign lookups. Zipf s=1.1, v=1 over the zone.
	zipf := newZipf(benignRNG, 1.1, uint64(cfg.BenignZoneSize))
	for day := 0; day < cfg.Days; day++ {
		dayStart := sim.Time(day) * sim.Day
		for c := 0; c < cfg.BenignClients; c++ {
			lease := c
			if cfg.DHCPChurn {
				// Daily lease rotation: a deterministic per-day shuffle of
				// the address pool (twice the client count, so addresses
				// also go unused some days).
				lease = int(sim.SplitFrom(cfg.Seed, uint64(day)*0xdc9+uint64(c)).Uint64() % uint64(cfg.BenignClients*2))
			}
			client := net.Client(fmt.Sprintf("10.0.%d.%d", lease/250, lease%250))
			n := poissonCount(benignRNG, cfg.BenignLookupsPerClient)
			for q := 0; q < n; q++ {
				at := dayStart + sim.Time(benignRNG.Int64N(int64(sim.Day)))
				k := zipf.Uint64()
				if _, err := net.Query(at, client, benign[k], benignIDs[k]); err != nil {
					tab.Release()
					return nil, fmt.Errorf("enterprise: benign query: %w", err)
				}
			}
		}
	}
	// NOTE: benign lookups are issued day-by-day but not globally sorted;
	// per-domain cache behaviour only depends on per-domain ordering, and
	// within a domain queries are near-sorted. (An evicting cache rehash at
	// a late time can turn an out-of-order earlier query into a miss; the
	// rehash points follow from the cache's own stores, so the trace is
	// still a function of the config alone.) The merged observable dataset
	// is sorted before return.

	// Infections: one botnet runner per family over the full window, with
	// per-day populations following a log-normal random walk around the
	// mean. Every family's per-day runners share one pool cache, so each
	// epoch's pool is generated once per family rather than once per day.
	pools := make(map[string]*dga.PoolCache, len(cfg.Infections))
	truth := make(map[string][]int, len(cfg.Infections))
	w := sim.Window{Start: 0, End: sim.Time(cfg.Days) * sim.Day}
	for i, inf := range cfg.Infections {
		walkRNG := sim.SplitFrom(cfg.Seed, 0x1f0+uint64(i))
		daily := make([]int, 0, cfg.Days)
		level := 0.0
		for day := 0; day < cfg.Days; day++ {
			if inf.Volatility > 0 {
				level += walkRNG.Normal(0, inf.Volatility)
				// Mean-revert so the series stays near the configured mean.
				level *= 0.8
			}
			n := int(math.Round(inf.MeanActive * math.Exp(level)))
			if n < 0 {
				n = 0
			}
			daily = append(daily, n)
		}
		cache := dga.NewPoolCache(inf.Spec.Pool, inf.Seed, tab)
		pools[inf.Spec.Name] = cache
		got, err := runInfection(net, inf, cache, daily, w)
		if err != nil {
			tab.Release()
			return nil, err
		}
		truth[inf.Spec.Name] = got
	}

	obs := net.Border.Observed()
	net.ReleaseCaches()
	obs.Sort()
	return &Trace{
		Observed:    obs,
		GroundTruth: truth,
		Days:        cfg.Days,
		LocalServer: local,
		Pools:       pools,
		tab:         tab,
	}, nil
}

// runInfection simulates a family day by day (populations vary daily) and
// returns the realised daily active counts.
func runInfection(net *dnssim.Network, inf Infection, pools *dga.PoolCache, daily []int, w sim.Window) ([]int, error) {
	const local = "local-00"
	out := make([]int, len(daily))
	for day, n := range daily {
		if n == 0 {
			continue
		}
		r, err := botnet.NewRunner(botnet.Config{
			Spec:            inf.Spec,
			Seed:            inf.Seed,
			BotsPerServer:   map[string]int{local: n},
			ReactivateEvery: inf.ReactivateEvery,
			Pools:           pools,
		}, net)
		if err != nil {
			return nil, fmt.Errorf("enterprise: %s day %d: %w", inf.Spec.Name, day, err)
		}
		dw := sim.Window{Start: sim.Time(day) * sim.Day, End: sim.Time(day+1) * sim.Day}
		if dw.End > w.End {
			dw.End = w.End
		}
		res, err := r.Run(dw)
		if err != nil {
			return nil, fmt.Errorf("enterprise: %s day %d: %w", inf.Spec.Name, day, err)
		}
		out[day] = res.ActiveBots[local][0]
	}
	return out, nil
}

// benignDomains produces a deterministic benign zone.
func benignDomains(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("site-%05d.example.com", i)
	}
	return out
}

// poissonCount draws a Poisson-distributed count via inversion (small
// means) or a normal approximation (large means).
func poissonCount(rng *sim.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(rng.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// zipfAdapter wraps the stdlib Zipf generator.
type zipfAdapter struct {
	z *zipfState
}

// newZipf builds a Zipf sampler over [0, imax) with exponent s.
func newZipf(rng *sim.RNG, s float64, imax uint64) *zipfAdapter {
	return &zipfAdapter{z: newZipfState(rng, s, imax)}
}

func (z *zipfAdapter) Uint64() uint64 { return z.z.next() }

// zipfState implements a simple Zipf sampler by inverse-CDF over a
// precomputed table (exact, deterministic, and independent of stdlib
// generator internals).
type zipfState struct {
	rng *sim.RNG
	cdf []float64
}

func newZipfState(rng *sim.RNG, s float64, imax uint64) *zipfState {
	n := int(imax)
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &zipfState{rng: rng, cdf: cdf}
}

func (z *zipfState) next() uint64 {
	u := z.rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return uint64(i)
}
