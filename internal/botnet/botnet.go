// Package botnet simulates DGA-infected bot populations against the
// dnssim hierarchy. Each epoch the botmaster registers the pool's C2
// domains; each bot activates once (Poisson-scheduled per the paper's §V-A
// workload model) and walks its query barrel through its local DNS server —
// pausing δi between lookups — until it resolves a C2 domain or exhausts θq
// attempts. The runner produces both datasets of the paper: the raw
// client-level trace (ground truth) and the cache-filtered observable trace
// at the border vantage point.
package botnet

import (
	"fmt"
	"sort"

	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// Config describes one botnet simulation.
type Config struct {
	// Spec is the DGA family to simulate.
	Spec dga.Spec
	// Seed drives every random choice (pools, barrels, activations).
	Seed uint64
	// EpochLen is δe; the default (0) means one day.
	EpochLen sim.Time
	// Activation selects constant (Sigma 0) or dynamic activation rates.
	Activation sim.ActivationModel
	// BotsPerServer maps local server IDs to resident bot counts.
	BotsPerServer map[string]int
	// ReactivateEvery, when positive, makes a bot that failed to reach a
	// C2 server retry its activation — re-querying the same barrel — after
	// this back-off (plus an exponential jitter of the same scale). Real
	// crimeware loops persistently until it reaches its botmaster; the
	// paper's workload model activates once per epoch, so this knob
	// defaults to off and is exercised by the extension experiments.
	ReactivateEvery sim.Time
	// MaxActivations bounds the per-epoch attempts when ReactivateEvery is
	// set (default 4).
	MaxActivations int
	// Pools, when non-nil, supplies the trial-shared pool cache, letting the
	// simulator, the matcher and the estimators all reuse one pool object per
	// epoch. It must wrap the same (Spec.Pool, Seed) pair as this config and
	// be built over an intern table, which NewRunner binds to the network
	// (Network.BindTable): a network already bound to another table is an
	// error. Nil makes the runner build a private cache over the network's
	// own table.
	Pools *dga.PoolCache
	// Barrels, when non-nil, memoises the bots' barrels across runs of the
	// same (Spec, Seed) — a sweep's axis values within one trial. Nil makes
	// each bot draw its barrel privately.
	Barrels *BarrelCache
}

// BarrelCache memoises the barrel draws of runners that share one (Spec,
// Seed). A bot's generator is SplitFrom(Seed, epoch, server, bot index) and
// its barrel is that generator's first use, so the key (epoch, server, bot
// index) fixes both the positions and the generator state after the draw.
// An entry keeps both: a hit hands the bot the positions and a clone of that
// state, and every later draw of the bot (jittered query gaps, reactivation
// back-off) is the one a private draw would have led to.
//
// A cache must only be shared by runners of one Spec and Seed. It is not
// safe for concurrent use: like a trial's pool cache, it belongs to one
// trial, whose runs are sequential.
type BarrelCache struct {
	byBot map[barrelKey]barrelEntry
}

type barrelKey struct {
	epoch  int
	server string
	bot    int
}

type barrelEntry struct {
	positions []int32
	// rng is the bot's generator right after the draw; hits clone it.
	rng *sim.RNG
}

// NewBarrelCache returns an empty cache.
func NewBarrelCache() *BarrelCache {
	return &BarrelCache{byBot: make(map[barrelKey]barrelEntry)}
}

// Result captures a completed run.
type Result struct {
	// Epochs are the epoch windows overlapping the run window.
	Epochs []sim.Window
	// ActiveBots[server][e] is the ground-truth count of bots behind
	// server that activated during epoch e within the run window.
	ActiveBots map[string][]int
	// QueriesIssued counts client-level DGA lookups.
	QueriesIssued int
	// C2Contacts counts activations that successfully resolved a C2
	// domain.
	C2Contacts int
}

// Runner executes botnet workloads on a network.
type Runner struct {
	cfg Config
	net *dnssim.Network

	pools *dga.PoolCache

	// validIDs holds each materialised epoch's C2 domain IDs, which is what
	// the registry roll-over (un)registers.
	validIDs map[int][]symtab.ID
	// uniformBarrels caches the one barrel a Uniform model produces per
	// epoch. Uniform bots all query the identical generation-order prefix
	// and the model ignores its RNG, so sharing one positions slice across
	// the whole population changes nothing observable while cutting the
	// per-bot θq-sized allocation — the dominant botnet-side allocation for
	// AU families.
	uniformBarrels map[int][]int32
	// permScratch is the pool-sized permutation buffer BarrelWithScratch
	// reuses across bot activations (Run is single-engine sequential, so one
	// buffer per runner suffices).
	permScratch []int32
}

// NewRunner validates the configuration and binds it to a network.
func NewRunner(cfg Config, net *dnssim.Network) (*Runner, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("botnet: %w", err)
	}
	if net == nil {
		return nil, fmt.Errorf("botnet: nil network")
	}
	if cfg.EpochLen <= 0 {
		cfg.EpochLen = sim.Day
	}
	if cfg.ReactivateEvery > 0 && cfg.MaxActivations <= 0 {
		cfg.MaxActivations = 4
	}
	for server, n := range cfg.BotsPerServer {
		if _, ok := net.Local(server); !ok {
			return nil, fmt.Errorf("botnet: unknown local server %q", server)
		}
		if n < 0 {
			return nil, fmt.Errorf("botnet: negative population for %q", server)
		}
	}
	r := &Runner{
		cfg:            cfg,
		net:            net,
		pools:          cfg.Pools,
		validIDs:       make(map[int][]symtab.ID),
		uniformBarrels: make(map[int][]int32),
	}
	if r.pools == nil {
		r.pools = dga.NewPoolCache(cfg.Spec.Pool, cfg.Seed, net.Table())
	} else if err := net.BindTable(r.pools.Table()); err != nil {
		return nil, fmt.Errorf("botnet: Config.Pools: %w", err)
	}
	return r, nil
}

// barrelFor returns a bot's intended positions and its generator, positioned
// just after the barrel draw. Uniform models share the epoch-wide slice (see
// uniformBarrels) and never draw; the others hit Config.Barrels when the
// runner has one and fill it on a miss.
func (r *Runner) barrelFor(key barrelKey, pool *dga.Pool) ([]int32, *sim.RNG) {
	spec := r.cfg.Spec
	if _, uniform := spec.Barrel.(dga.Uniform); uniform {
		rng := r.botRNG(key)
		b, ok := r.uniformBarrels[key.epoch]
		if !ok {
			b = dga.BarrelWithScratch(spec.Barrel, pool, spec.ThetaQ, rng, &r.permScratch)
			r.uniformBarrels[key.epoch] = b
		}
		return b, rng
	}
	cache := r.cfg.Barrels
	if cache != nil {
		if e, ok := cache.byBot[key]; ok {
			return e.positions, e.rng.Clone()
		}
	}
	rng := r.botRNG(key)
	b := dga.BarrelWithScratch(spec.Barrel, pool, spec.ThetaQ, rng, &r.permScratch)
	if cache != nil {
		cache.byBot[key] = barrelEntry{positions: b, rng: rng.Clone()}
	}
	return b, rng
}

// botRNG is a bot's private generator; its first use is the barrel draw.
func (r *Runner) botRNG(key barrelKey) *sim.RNG {
	return sim.SplitFrom(r.cfg.Seed, hashLabels(uint64(key.epoch), hashString(key.server), uint64(key.bot)))
}

// Pool returns the (cached) pool for an epoch index.
func (r *Runner) Pool(epoch int) *dga.Pool {
	p := r.pools.For(epoch)
	if _, ok := r.validIDs[epoch]; !ok {
		ids := make([]symtab.ID, 0, len(p.ValidPositions))
		for _, pos := range p.ValidPositions {
			ids = append(ids, p.IDs[pos])
		}
		r.validIDs[epoch] = ids
	}
	return p
}

// Run simulates the window w and returns the ground truth. The border's
// records go to its Sink, or accumulate in its dataset, and raw records
// accumulate on the bound network, across runs: a caller that wants one
// run's records alone builds one network per run.
func (r *Runner) Run(w sim.Window) (*Result, error) {
	if w.Len() <= 0 {
		return nil, fmt.Errorf("botnet: empty window %+v", w)
	}
	engine := sim.NewEngine()
	epochLen := r.cfg.EpochLen

	servers := make([]string, 0, len(r.cfg.BotsPerServer))
	for s := range r.cfg.BotsPerServer {
		servers = append(servers, s)
	}
	sort.Strings(servers)

	res := &Result{ActiveBots: make(map[string][]int, len(servers))}
	firstEpoch := int(w.Start / epochLen)
	lastEpoch := int((w.End - 1) / epochLen)
	numEpochs := lastEpoch - firstEpoch + 1
	for e := firstEpoch; e <= lastEpoch; e++ {
		res.Epochs = append(res.Epochs, sim.Window{
			Start: sim.Time(e) * epochLen,
			End:   sim.Time(e+1) * epochLen,
		})
	}
	for _, s := range servers {
		res.ActiveBots[s] = make([]int, numEpochs)
	}

	// Epoch rollover: the botmaster (de)registers C2 domains at epoch
	// boundaries. Scheduled first at each boundary (engine preserves
	// scheduling order for simultaneous events).
	for ei, ew := range res.Epochs {
		epoch := firstEpoch + ei
		start := ew.Start
		if start < w.Start {
			start = w.Start
		}
		engine.Schedule(start, func(*sim.Engine) {
			r.rollRegistry(epoch)
		})
	}

	// Schedule activations per server per epoch.
	for _, server := range servers {
		n := r.cfg.BotsPerServer[server]
		if n == 0 {
			continue
		}
		for ei := range res.Epochs {
			epoch := firstEpoch + ei
			actRNG := sim.SplitFrom(r.cfg.Seed, hashLabels(uint64(epoch), hashString(server), 0xa11))
			times := r.cfg.Activation.EpochActivations(actRNG, n, res.Epochs[ei].Start, epochLen)
			for bi, at := range times {
				if !w.Contains(at) {
					continue
				}
				res.ActiveBots[server][ei]++
				name := fmt.Sprintf("%s/bot-%04d", server, bi)
				client, err := r.net.AssignClient(name, server)
				if err != nil {
					return nil, fmt.Errorf("botnet: homing %s: %w", name, err)
				}
				bot := botRun{
					runner: r,
					key:    barrelKey{epoch: epoch, server: server, bot: bi},
					client: client,
					result: res,
				}
				engine.Schedule(at, bot.start)
			}
		}
	}

	engine.Run(w.End)
	return res, nil
}

// rollRegistry replaces the registered C2 set with the given epoch's.
func (r *Runner) rollRegistry(epoch int) {
	if prev, ok := r.validIDs[epoch-1]; ok {
		r.net.Registry.UnregisterIDs(prev)
	}
	r.Pool(epoch) // ensures validIDs[epoch] is materialised
	r.net.Registry.RegisterIDs(r.validIDs[epoch])
}

// botRun drives one bot's activation(s) through the DNS hierarchy.
type botRun struct {
	runner *Runner
	key    barrelKey
	client dnssim.Client
	result *Result

	// rng is nil until the first activation draws the barrel.
	rng         *sim.RNG
	positions   []int32
	pool        *dga.Pool
	step        int
	activations int

	// queryFn and startFn are the bot's methods pre-bound once per bot:
	// every ScheduleAfter(b.query) retry used to materialise a fresh
	// method-value closure, which was ~30% of all simulation allocations.
	queryFn func(*sim.Engine)
	startFn func(*sim.Engine)
}

func (b *botRun) start(e *sim.Engine) {
	if b.queryFn == nil {
		b.queryFn = b.query
		b.startFn = b.start
	}
	if b.pool == nil {
		// The pool is resolved once per bot: a bot's activations all live in
		// one epoch, so re-asking the cache per query (mutex + map lookup on
		// the hottest simulation path) bought nothing.
		b.pool = b.runner.Pool(b.key.epoch)
	}
	b.activations++
	if b.rng == nil {
		// The barrel is drawn once: the DGA is seeded by the date, so a
		// retry walks the same list (§III).
		b.positions, b.rng = b.runner.barrelFor(b.key, b.pool)
	}
	b.step = 0
	b.query(e)
}

func (b *botRun) query(e *sim.Engine) {
	if b.step >= len(b.positions) {
		b.maybeReactivate(e) // aborted after θq attempts without C2 contact
		return
	}
	pos := b.positions[b.step]
	ans, err := b.runner.net.Query(e.Now(), b.client, b.pool.Domains[pos], b.pool.IDs[pos])
	if err != nil {
		return
	}
	b.result.QueriesIssued++
	b.step++
	if ans.ServFail {
		// Resolution failure (injected fault or upstream outage): the bot
		// cannot tell SERVFAIL from NXDomain success-wise and walks on to
		// the next domain, like real crimeware under packet loss.
		e.ScheduleAfter(b.runner.cfg.Spec.Interval(b.rng), b.queryFn)
		return
	}
	if !ans.NX {
		b.result.C2Contacts++
		return // rendezvous established; activation ends
	}
	e.ScheduleAfter(b.runner.cfg.Spec.Interval(b.rng), b.queryFn)
}

// maybeReactivate schedules a retry of the same barrel after the back-off,
// staying within the bot's epoch.
func (b *botRun) maybeReactivate(e *sim.Engine) {
	cfg := b.runner.cfg
	if cfg.ReactivateEvery <= 0 || b.activations >= cfg.MaxActivations {
		return
	}
	delay := cfg.ReactivateEvery + b.rng.Exp(1/float64(cfg.ReactivateEvery))
	at := e.Now() + delay
	epochEnd := sim.Time(b.key.epoch+1) * cfg.EpochLen
	if at >= epochEnd {
		return
	}
	e.Schedule(at, b.startFn)
}

// hashString folds a string into a uint64 label for RNG splitting.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// hashLabels mixes labels into a single RNG-split label.
func hashLabels(parts ...uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, p := range parts {
		h ^= p
		h *= 1099511628211
		h ^= h >> 29
	}
	return h
}
