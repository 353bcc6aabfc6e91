package estimators

import "botmeter/internal/sim"

// Timing is MT, the paper's Algorithm 1: it partitions observed lookups
// into per-bot groups using three temporal heuristics and reports the
// number of groups.
//
//	#1 — a bot never looks up the same NXD twice in one epoch, so a lookup
//	     for a domain already attributed to a candidate bot cannot be
//	     absorbed by it;
//	#2 — an activation lasts at most θq·δi, so a lookup later than that
//	     after a candidate's first lookup belongs to someone else;
//	#3 — lookups within one activation are spaced by exact multiples of δi,
//	     so an offset that is not ≡ 0 (mod δi) indicates a different bot.
//
// Heuristic #3 is only meaningful when the family has a fixed query
// interval AND the vantage point's timestamp granularity is at least as
// fine as δi; otherwise it is skipped (this is exactly why MT collapses on
// the paper's real traces, where granularity is 1 s and δi ≤ 1 s — see
// Table II).
type Timing struct{}

// NewTiming builds MT.
func NewTiming() *Timing { return &Timing{} }

// Name implements Estimator.
func (*Timing) Name() string { return "MT" }

// timingEntry is one candidate bot: its first lookup time and the domains
// attributed to it, as pool positions.
type timingEntry struct {
	first sim.Time
	seen  map[int32]struct{}
}
