// Package botmeter reproduces "BotMeter: Charting DGA-Botnet Landscapes in
// Large Networks" (ICDCS 2016): a tool that estimates the population of
// DGA-embedded bots behind each local DNS server of a large network, using
// only the cache-filtered DNS lookups observable at an upper-level (border)
// vantage point.
//
// This root package is the stable public facade over the implementation
// packages:
//
//   - the DGA taxonomy and family presets (pool models × barrel models),
//   - the hierarchical caching/forwarding DNS simulator,
//   - the analytical model library: the Timing estimator MT (Algorithm 1),
//     the Poisson estimator MP (Equation 1) and the Bernoulli estimator MB
//     (Theorem 1), plus a coverage-inversion estimator and a naive baseline,
//   - the end-to-end pipeline that matches traffic, groups it by forwarding
//     server and charts the remediation-priority landscape.
//
// Quickstart:
//
//	family, _ := botmeter.LookupFamily("newgoz")
//	bm, _ := botmeter.New(botmeter.Config{Family: family, Seed: seed})
//	landscape, _ := bm.Analyze(observed, botmeter.Window{End: botmeter.Day})
//	fmt.Print(landscape)
//
// See examples/ for runnable scenarios and cmd/ for the CLI tools.
package botmeter

import (
	"botmeter/internal/core"
	"botmeter/internal/d3"
	"botmeter/internal/dga"
	"botmeter/internal/estimators"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// Config configures a BotMeter deployment for one target DGA family.
type Config = core.Config

// BotMeter is the analysis pipeline (paper Figure 2).
type BotMeter = core.BotMeter

// Landscape is the charted result: per-server population estimates in
// remediation-priority order.
type Landscape = core.Landscape

// ServerEstimate is one local DNS server's assessment.
type ServerEstimate = core.ServerEstimate

// Trend tracks per-server estimates across consecutive analysis windows.
type Trend = core.Trend

// NewTrend starts an empty longitudinal trend for a family.
func NewTrend(family string) *Trend { return core.NewTrend(family) }

// New builds a BotMeter instance.
func New(cfg Config) (*BotMeter, error) { return core.New(cfg) }

// Spec describes a DGA family (pool model, barrel model, θ parameters).
type Spec = dga.Spec

// LookupFamily finds a family preset by case-insensitive name (e.g.
// "newgoz", "conficker.c", "murofet").
func LookupFamily(name string) (Spec, error) { return dga.Lookup(name) }

// FamilyNames lists the available presets.
func FamilyNames() []string { return dga.FamilyNames() }

// Estimator is one analytical population model.
type Estimator = estimators.Estimator

// EstimatorConfig parameterises direct estimator use (most callers go
// through BotMeter instead).
type EstimatorConfig = estimators.Config

// EstimateEpoch applies an estimator to the matched lookups one local server
// forwarded during one epoch (index into the epoch grid).
func EstimateEpoch(e Estimator, obs Observed, epoch int, cfg EstimatorConfig) (float64, error) {
	return estimators.EstimateEpoch(e, obs, epoch, cfg)
}

// NewTiming returns MT, the paper's Algorithm 1.
func NewTiming() Estimator { return estimators.NewTiming() }

// NewPoisson returns MP, the paper's Equation 1 estimator for
// uniform-barrel DGAs.
func NewPoisson() Estimator { return estimators.NewPoisson() }

// NewBernoulli returns MB, the paper's Theorem 1 estimator for
// randomcut-barrel DGAs.
func NewBernoulli() Estimator { return estimators.NewBernoulli() }

// NewCoverage returns the coverage-inversion estimator (MB's engineering
// fallback, exposed for ablation).
func NewCoverage() Estimator { return estimators.NewCoverage() }

// ForModel returns the estimator the paper pairs with a DGA's taxonomy
// cell.
func ForModel(spec Spec) Estimator { return estimators.ForModel(spec) }

// DetectionWindow models an imperfect D³ (DGA-domain detection) front end.
type DetectionWindow = d3.Window

// Observed is the vantage-point dataset: ⟨timestamp, forwarding server,
// domain⟩ records.
type Observed = trace.Observed

// ObservedRecord is one forwarded lookup.
type ObservedRecord = trace.ObservedRecord

// Raw is the client-level dataset (ground truth inside the network).
type Raw = trace.Raw

// RawRecord is one client-level lookup.
type RawRecord = trace.RawRecord

// Time is a virtual timestamp in milliseconds.
type Time = sim.Time

// Window is a half-open analysis interval.
type Window = sim.Window

// Common durations in virtual-clock units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
	Day         = sim.Day
)
