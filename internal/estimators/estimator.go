// Package estimators implements BotMeter's analytical model library (paper
// §IV): the Timing estimator MT (Algorithm 1), the Poisson estimator MP
// (Equation 1) for uniform-barrel DGAs, and the Bernoulli estimator MB
// (Theorem 1) for randomcut-barrel DGAs, plus a coverage-inversion
// estimator used as MB's numerical fallback and a naive cluster-count
// baseline.
//
// Every estimator consumes the cache-filtered, already-matched DNS lookups
// of ONE local server and estimates the number of bots of the target DGA
// active behind that server. "Matched" means the matcher has stamped each
// record with its pool position (trace.ObservedRecord.Pos): the estimators
// read a record's time and position and never its name or interned ID.
package estimators

import (
	"fmt"
	"strings"

	"botmeter/internal/d3"
	"botmeter/internal/dga"
	"botmeter/internal/matcher"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// Config carries everything an estimator may need beyond the observations
// themselves: the target DGA's spec (θ parameters, pacing), the seed that
// reconstructs its pools, and the DNS infrastructure parameters the
// analyst configures through BotMeter's interface (paper Figure 2, step 6).
type Config struct {
	// Spec is the target DGA family.
	Spec dga.Spec
	// Seed reconstructs the family's pools (position information for MB).
	Seed uint64
	// EpochLen is δe (default one day).
	EpochLen sim.Time
	// NegativeTTL is δl, the local servers' negative-cache TTL.
	NegativeTTL sim.Time
	// Granularity is the vantage point's timestamp granularity (0 = full
	// fidelity); MT consults it to decide whether heuristic #3 is usable.
	Granularity sim.Time
	// Detection describes the D³ front end's coverage when known; the
	// Bernoulli estimator uses it to reason on the detected sub-circle
	// (undetectable positions must not split segments) and to scale θq by
	// the realised coverage. Nil means the full pool is detectable.
	Detection *d3.Window
	// Pools is the per-epoch pool cache the position-aware estimators (MB,
	// Coverage) read: one pool object per epoch, however many (server,
	// epoch) cells ask for it — the cache the matcher stamped the records'
	// positions from. Nil gets a private cache over (Spec, Seed) when the
	// config is normalised — so normalise once and fan the result out.
	Pools *dga.PoolCache

	// normalized records that withDefaults (and the caller's Validate) has
	// already run on this value, letting every cell's OpenEpoch skip
	// re-normalising. Set by withDefaults; core.Analyze and the streaming
	// engine normalise once and fan the flagged config out.
	normalized bool
}

// timeOrdered returns obs in non-decreasing timestamp order: obs itself when
// it already is (every windowed view of a sorted trace), otherwise a stably
// sorted copy — the batch forms of the order-dependent estimators (MT, MP,
// NC) feed their streams from it. A stable sort's output is determined by
// its input, so which stable sort runs cannot show in an estimate.
func timeOrdered(obs trace.Observed) trace.Observed {
	if obs.IsSorted() {
		return obs
	}
	s := make(trace.Observed, len(obs))
	copy(s, obs)
	s.Sort()
	return s
}

// withDefaults normalises zero fields and marks the config normalized.
func (c Config) withDefaults() Config {
	if c.EpochLen <= 0 {
		c.EpochLen = sim.Day
	}
	if c.NegativeTTL <= 0 {
		c.NegativeTTL = 2 * sim.Hour
	}
	if c.Pools == nil {
		c.Pools = dga.NewPoolCache(c.Spec.Pool, c.Seed, nil)
	}
	c.normalized = true
	return c
}

// Normalized applies defaults, validates once, and returns a config the
// per-epoch estimator paths accept without re-normalising. Engine-level
// callers (core.Analyze, the streaming engine) call this once and reuse the
// result for every (server, epoch) cell; on such a result it is a no-op.
func (c Config) Normalized() (Config, error) {
	if c.normalized {
		return c, nil
	}
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return fmt.Errorf("estimators: %w", err)
	}
	if c.EpochLen < 0 || c.NegativeTTL < 0 || c.Granularity < 0 {
		return fmt.Errorf("estimators: negative duration in config")
	}
	return nil
}

// Estimator is one analytical population model: a name and, per (server,
// epoch) cell, the sufficient statistic it folds that cell's lookups into.
// Batch analysis and the streaming engine run the same Walk over the same
// EpochStreams, which is what makes their landscapes identical.
type Estimator interface {
	// Name returns the estimator's short name (MT, MP, MB, …).
	Name() string
	// OpenEpoch starts the estimate of the active bot population behind one
	// local server during epoch (index into the epoch grid).
	OpenEpoch(epoch int, cfg Config) EpochStream
}

// EpochStream is an estimator's state for one (server, epoch) cell. It holds
// a bounded statistic of what it has observed, never the records.
type EpochStream interface {
	// Observe folds one matched lookup in — its time and the pool position
	// the matcher stamped on it. Records MUST arrive in non-decreasing
	// timestamp order (the engine's reorder buffer guarantees this).
	Observe(rec trace.ObservedRecord)
	// Estimate returns the estimate over everything observed so far. It
	// is valid mid-epoch (provisional) and after the last record (final).
	Estimate() float64
	// ExportState snapshots the statistic for a checkpoint or a merge. The
	// stream stays usable and shares nothing with the result. names is the
	// epoch's matcher: what is held as pool positions leaves as names.
	ExportState(names *matcher.Attribution) EpochState
	// RestoreState replaces the statistic with an exported one of the
	// stream's own kind. After an error the stream is to be discarded.
	RestoreState(st EpochState, names *matcher.Attribution) error
}

// EstimateEpoch is the batch form of every estimator: the matched,
// cache-filtered lookups one server forwarded during epoch, fed in time
// order through the stream the estimator opens for that cell.
func EstimateEpoch(e Estimator, obs trace.Observed, epoch int, cfg Config) (float64, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return 0, err
	}
	if len(obs) == 0 {
		return 0, nil
	}
	s := e.OpenEpoch(epoch, cfg)
	for _, rec := range timeOrdered(obs) {
		s.Observe(rec)
	}
	v := s.Estimate()
	if r, ok := s.(Releasable); ok {
		r.Release()
	}
	return v, nil
}

// ForModel returns the estimator matching a DGA's taxonomy cell. The paper
// pairs MP with AU and MB with AR (both drain-and-replenish); the pairing
// extends to every pool model because the premises attach to the barrel
// alone — MP needs identical per-bot query sequences (any uniform barrel,
// e.g. PushDo's sliding window or Pykspa's mixture) and MB needs the
// circular-cut geometry, which PoolFor reconstructs per epoch for any pool
// class. Everything else falls back to MT.
func ForModel(spec dga.Spec) Estimator {
	switch spec.Barrel.Class() {
	case dga.UniformBarrel:
		return NewPoisson()
	case dga.RandomCutBarrel:
		return NewBernoulli()
	default:
		return NewTiming()
	}
}

// ByName returns the standard construction of the estimator a report or a
// fingerprint names, case-insensitively — the one table from names to
// estimators (the `botmeter -estimator` values).
func ByName(name string) (Estimator, error) {
	switch strings.ToUpper(name) {
	case "MT":
		return NewTiming(), nil
	case "MP":
		return NewPoisson(), nil
	case "NC":
		return NewNaive(), nil
	case "MB":
		return NewBernoulli(), nil
	case "MB-C":
		return NewCoverage(), nil
	}
	return nil, fmt.Errorf("estimators: unknown estimator %q", name)
}

// Naive counts visible activation clusters without correcting for caching —
// the uncorrected baseline MP improves upon. Its name in reports is NC.
type Naive struct{}

// NewNaive builds the baseline estimator.
func NewNaive() *Naive { return &Naive{} }

// Name implements Estimator.
func (*Naive) Name() string { return "NC" }
