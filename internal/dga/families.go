package dga

import (
	"fmt"
	"sort"

	"botmeter/internal/sim"
)

// Spec fully describes a DGA family: its pool model, barrel model, barrel
// size θq and query interval δi. A Spec plus a seed is everything needed to
// simulate the family or to reconstruct its pools for estimation.
type Spec struct {
	Name   string
	Pool   PoolModel
	Barrel BarrelModel
	// ThetaQ is the maximum number of lookups per activation (θq).
	ThetaQ int
	// QueryInterval is δi, the fixed gap between consecutive lookups in an
	// activation. Zero means the family paces lookups irregularly (the
	// "none" entries of Table II); the simulator then jitters intervals
	// uniformly in [MinJitter, MaxJitter].
	QueryInterval sim.Time
	// MinJitter/MaxJitter bound irregular pacing when QueryInterval is 0.
	MinJitter, MaxJitter sim.Time
	// Notes documents provenance of the parameters.
	Notes string
}

// Validate checks internal consistency of the spec.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("dga: spec missing name")
	case s.Pool == nil:
		return fmt.Errorf("dga %s: missing pool model", s.Name)
	case s.Barrel == nil:
		return fmt.Errorf("dga %s: missing barrel model", s.Name)
	case s.ThetaQ <= 0:
		return fmt.Errorf("dga %s: θq must be positive, got %d", s.Name, s.ThetaQ)
	case s.QueryInterval < 0:
		return fmt.Errorf("dga %s: negative query interval", s.Name)
	case s.QueryInterval == 0 && (s.MinJitter <= 0 || s.MaxJitter < s.MinJitter):
		return fmt.Errorf("dga %s: irregular pacing needs 0 < MinJitter <= MaxJitter", s.Name)
	}
	return nil
}

// Interval returns the gap to use before the i-th lookup of an activation,
// drawing jitter from rng when the family has no fixed interval. It takes a
// pointer, unlike Spec's other methods: the simulator calls it once per
// query, and a value receiver copied the whole Spec each time.
func (s *Spec) Interval(rng *sim.RNG) sim.Time {
	if s.QueryInterval > 0 {
		return s.QueryInterval
	}
	span := int64(s.MaxJitter - s.MinJitter)
	if span <= 0 {
		return s.MinJitter
	}
	return s.MinJitter + sim.Time(rng.Int64N(span+1))
}

// MaxDuration bounds the duration δd of one activation: θq lookups at the
// slowest pacing.
func (s Spec) MaxDuration() sim.Time {
	step := s.QueryInterval
	if step == 0 {
		step = s.MaxJitter
	}
	return step * sim.Time(s.ThetaQ)
}

// Classify returns the taxonomy cell of the spec.
func (s Spec) Classify() (PoolClass, BarrelClass) {
	return s.Pool.Class(), s.Barrel.Class()
}

// ModelName returns the paper's A-shorthand (AU/AS/AR/AP) when the pool is
// drain-and-replenish, or pool/barrel names otherwise.
func (s Spec) ModelName() string {
	pc, bc := s.Classify()
	if pc == DrainReplenishPool {
		return Model(bc)
	}
	return fmt.Sprintf("%s/%s", pc, bc)
}

// Family presets. Parameters for Murofet, Conficker.C, newGoZ and Necurs
// are the paper's Table I; Ranbyus, PushDo and Pykspa follow the §III-A
// text; Ramnit and Qakbot ("none" query interval) follow Table II plus
// public malware analyses; Srizbi and Torpig sizes are representative of
// published reports and are used only in examples, never in reproduced
// experiments.
// Per-family lexical profiles. These approximate the published output
// shapes of each family's generator (charset, length band, TLD set); the
// estimators never read domain bytes, but distinct profiles exercise the
// structural matcher and make multi-family traces realistic.
var (
	murofetGen   = Generator{Charset: "abcdefghijklmnopqrstuvwxyz", MinLen: 12, MaxLen: 25, TLDs: []string{"biz", "info", "org", "net", "com", "ru"}}
	confickerGen = Generator{Charset: "abcdefghijklmnopqrstuvwxyz", MinLen: 4, MaxLen: 10, TLDs: []string{"com", "net", "org", "info", "biz"}}
	newGoZGen    = Generator{Charset: "abcdefghijklmnopqrstuvwxyz0123456789", MinLen: 20, MaxLen: 28, TLDs: []string{"com", "net", "org", "biz"}}
	necursGen    = Generator{Charset: "abcdefghijklmnopqrstuvwxyz", MinLen: 7, MaxLen: 21, TLDs: []string{"bit", "pw", "bid", "xyz", "top"}}
	ranbyusGen   = Generator{Charset: "abcdefghijklmnopqrstuvwxyz", MinLen: 14, MaxLen: 14, TLDs: []string{"in", "me", "cc", "su", "tw"}}
	pushdoGen    = Generator{Charset: "abcdefghijklmnopqrstuvwxyz", MinLen: 7, MaxLen: 12, TLDs: []string{"kz", "com"}}
	pykspaGen    = Generator{Charset: "abcdefghijklmnopqrstuvwxyz", MinLen: 6, MaxLen: 12, TLDs: []string{"com", "net", "org", "info"}}
	ramnitGen    = Generator{Charset: "abcdefghijklmnopqrstuvwxyz", MinLen: 8, MaxLen: 19, TLDs: []string{"com"}}
	qakbotGen    = Generator{Charset: "abcdefghijklmnopqrstuvwxyz", MinLen: 8, MaxLen: 25, TLDs: []string{"com", "net", "org", "info", "biz"}}
)

func Murofet() Spec {
	return Spec{
		Name:          "Murofet",
		Pool:          DrainReplenish{NX: 798, C2: 2, Gen: murofetGen},
		Barrel:        Uniform{},
		ThetaQ:        798,
		QueryInterval: 500 * sim.Millisecond,
		Notes:         "Table I row AU",
	}
}

// ConfickerC is the paper's AS prototype: 500 random picks from a 50K pool.
func ConfickerC() Spec {
	return Spec{
		Name:          "Conficker.C",
		Pool:          DrainReplenish{NX: 49995, C2: 5, Gen: confickerGen},
		Barrel:        Sampling{},
		ThetaQ:        500,
		QueryInterval: sim.Second,
		Notes:         "Table I row AS",
	}
}

// NewGoZ is the paper's AR prototype: 500 consecutive domains from a random
// start in a 10K circle.
func NewGoZ() Spec {
	return Spec{
		Name:          "newGoZ",
		Pool:          DrainReplenish{NX: 9995, C2: 5, Gen: newGoZGen},
		Barrel:        RandomCut{},
		ThetaQ:        500,
		QueryInterval: sim.Second,
		Notes:         "Table I row AR",
	}
}

// Necurs is the paper's AP prototype: a 2048-domain pool regenerated every
// four days, queried in a fresh random permutation daily.
func Necurs() Spec {
	return Spec{
		Name:          "Necurs",
		Pool:          DrainReplenish{NX: 2046, C2: 2, Period: 4, Gen: necursGen},
		Barrel:        Permutation{},
		ThetaQ:        2046,
		QueryInterval: 500 * sim.Millisecond,
		Notes:         "Table I row AP; §III-B: pool period 4 days",
	}
}

// Ranbyus: sliding window of 40 fresh domains/day over the past 30 days
// (1240-domain pool), permutation barrel.
func Ranbyus() Spec {
	return Spec{
		Name:          "Ranbyus",
		Pool:          SlidingWindow{PerDay: 40, Back: 30, Forward: 0, C2: 3, Gen: ranbyusGen},
		Barrel:        Permutation{},
		ThetaQ:        40 * 31,
		QueryInterval: 500 * sim.Millisecond,
		Notes:         "§III-A sliding-window example (40/day × 31 days = 1240)",
	}
}

// PushDo: sliding window of -30..+15 days × 30 domains/day (1380-domain
// pool), uniform barrel.
func PushDo() Spec {
	return Spec{
		Name:      "PushDo",
		Pool:      SlidingWindow{PerDay: 30, Back: 30, Forward: 15, C2: 2, Gen: pushdoGen},
		Barrel:    Uniform{},
		ThetaQ:    30 * 46,
		MinJitter: 200 * sim.Millisecond,
		MaxJitter: 2 * sim.Second,
		Notes:     "§III-A sliding-window example (30/day × 46 days = 1380)",
	}
}

// Pykspa: two interleaved DGA instances — 200 useful domains and 16K noisy
// ones — uniform barrel over the mixture.
func Pykspa() Spec {
	return Spec{
		Name:          "Pykspa",
		Pool:          MultipleMixture{UsefulNX: 198, UsefulC2: 2, NoiseSizes: []int{16000}, Gen: pykspaGen},
		Barrel:        Uniform{},
		ThetaQ:        1000,
		QueryInterval: 500 * sim.Millisecond,
		Notes:         "§III-A multiple-mixture example",
	}
}

// Ramnit: uniform barrel, no fixed query interval (Table II "none").
func Ramnit() Spec {
	return Spec{
		Name:      "Ramnit",
		Pool:      DrainReplenish{NX: 298, C2: 2, Gen: ramnitGen},
		Barrel:    Uniform{},
		ThetaQ:    300,
		MinJitter: 100 * sim.Millisecond,
		MaxJitter: 3 * sim.Second,
		Notes:     "Table II row; irregular pacing",
	}
}

// Qakbot: uniform barrel, no fixed query interval (Table II "none").
func Qakbot() Spec {
	return Spec{
		Name:      "Qakbot",
		Pool:      DrainReplenish{NX: 2045, C2: 3, Gen: qakbotGen},
		Barrel:    Uniform{},
		ThetaQ:    2048,
		MinJitter: 100 * sim.Millisecond,
		MaxJitter: 3 * sim.Second,
		Notes:     "Table II row; irregular pacing",
	}
}

// Srizbi: small daily uniform pool (illustrative preset for examples).
func Srizbi() Spec {
	return Spec{
		Name:          "Srizbi",
		Pool:          DrainReplenish{NX: 14, C2: 2, Gen: Generator{Charset: "qwerty", MinLen: 7, MaxLen: 10, TLDs: []string{"com"}}},
		Barrel:        Uniform{},
		ThetaQ:        16,
		QueryInterval: 500 * sim.Millisecond,
		Notes:         "illustrative preset",
	}
}

// Torpig: weekly-flavoured uniform pool (illustrative preset for examples).
func Torpig() Spec {
	return Spec{
		Name:          "Torpig",
		Pool:          DrainReplenish{NX: 27, C2: 3, Gen: DefaultGenerator},
		Barrel:        Uniform{},
		ThetaQ:        30,
		QueryInterval: 500 * sim.Millisecond,
		Notes:         "illustrative preset",
	}
}

// Adaptive is the §VII "future work, attacker's perspective" family: it
// randomises the query interval per lookup and samples its barrel, evading
// both the timing heuristics of MT and the identical-barrel premise of MP.
// BotMeter's library includes it so defenders can quantify the estimation
// gap such a design would open (see examples/takedown).
func Adaptive() Spec {
	return Spec{
		Name:      "Adaptive",
		Pool:      DrainReplenish{NX: 9995, C2: 5, Gen: DefaultGenerator},
		Barrel:    Sampling{},
		ThetaQ:    500,
		MinJitter: 50 * sim.Millisecond,
		MaxJitter: 10 * sim.Second,
		Notes:     "§VII direction 3: estimation-evading design",
	}
}

// Families returns every preset keyed by lower-case name.
func Families() map[string]Spec {
	specs := []Spec{
		Murofet(), ConfickerC(), NewGoZ(), Necurs(),
		Ranbyus(), PushDo(), Pykspa(),
		Ramnit(), Qakbot(), Srizbi(), Torpig(), Adaptive(),
	}
	out := make(map[string]Spec, len(specs))
	for _, s := range specs {
		out[lower(s.Name)] = s
	}
	return out
}

// FamilyNames returns the preset names in sorted order.
func FamilyNames() []string {
	fams := Families()
	names := make([]string, 0, len(fams))
	for _, s := range fams {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// Lookup finds a preset by case-insensitive name.
func Lookup(name string) (Spec, error) {
	if s, ok := Families()[lower(name)]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("dga: unknown family %q (known: %v)", name, FamilyNames())
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}
