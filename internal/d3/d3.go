// Package d3 models the DGA-domain detection (D³) front end that feeds
// BotMeter (paper §II-B). A real D³ algorithm — lexical classification,
// reverse engineering, NXD clustering — reports only part of each query
// pool (its detection window) and may include collision domains that
// coincide with valid benign names. The Window type reproduces exactly the
// model the paper evaluates in Figure 6(e): a uniformly random fraction of
// the pool is missed.
package d3

import (
	"fmt"

	"botmeter/internal/dga"
	"botmeter/internal/sim"
)

// Window simulates a D³ algorithm's coverage of DGA pools.
type Window struct {
	// MissRate is the fraction of pool domains the detector fails to
	// report, sampled uniformly at random per epoch (Figure 6(e) sweeps
	// 0.10–0.50).
	MissRate float64
	// Collisions is the number of unrelated (benign) domains erroneously
	// attributed to the DGA per epoch — the paper's "collision cases".
	Collisions int
	// Seed drives the random misses and collisions.
	Seed uint64
}

// Validate checks the configuration.
func (w Window) Validate() error {
	if w.MissRate < 0 || w.MissRate >= 1 {
		return fmt.Errorf("d3: miss rate %v outside [0,1)", w.MissRate)
	}
	if w.Collisions < 0 {
		return fmt.Errorf("d3: negative collision count")
	}
	return nil
}

// Report is the detector's output for one epoch.
type Report struct {
	// Detected is the subset of the epoch's pool the detector reports, in
	// pool order.
	Detected []string
	// DetectedPositions are the pool positions of Detected (parallel
	// slice), needed by position-aware estimators (Bernoulli).
	DetectedPositions []int
	// Collisions are spurious domains attributed to the DGA.
	Collisions []string
	// Missed counts pool domains the detector failed to report.
	Missed int
}

// Detect produces the epoch report for a pool. The same (Window, epoch,
// pool) always yields the same report.
func (w Window) Detect(epoch int, pool *dga.Pool) Report {
	rng := sim.SplitFrom(w.Seed, uint64(uint32(epoch))*0x9e3779b1+0xd3)
	var rep Report
	rep.Detected = make([]string, 0, pool.Size())
	rep.DetectedPositions = make([]int, 0, pool.Size())
	for i, d := range pool.Domains {
		if w.MissRate > 0 && rng.Float64() < w.MissRate {
			rep.Missed++
			continue
		}
		rep.Detected = append(rep.Detected, d)
		rep.DetectedPositions = append(rep.DetectedPositions, i)
	}
	for i := 0; i < w.Collisions; i++ {
		rep.Collisions = append(rep.Collisions,
			fmt.Sprintf("benign-collision-%d-%d.com", epoch, i))
	}
	return rep
}

// Coverage returns the realised detection coverage of a report.
func (r Report) Coverage() float64 {
	total := len(r.Detected) + r.Missed
	if total == 0 {
		return 0
	}
	return float64(len(r.Detected)) / float64(total)
}
