package experiments

import (
	"math"
	"testing"

	"botmeter/internal/dga"
	"botmeter/internal/estimators"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// TestSharedTrialEquivalences asserts what every synthetic artifact leans
// on now that all of them run runTrial: on a clean trace, under record loss
// and behind a faulty link, bare and hardened, (1) MT read off the primary's
// Analyze as its second opinion is, bit for bit, the figure of a dedicated
// MT Analyze of the same trace — which is what runTrial does when MT is
// the only estimator; (2) a pool cache shared across a row's axis values
// gives what a trial's private cache gives; (3) records resolved by interned
// ID give what records resolved by name give.
func TestSharedTrialEquivalences(t *testing.T) {
	conditions := []struct {
		name string
		edit func(*trialParams)
	}{
		{"clean", func(*trialParams) {}},
		{"50% record loss", func(p *trialParams) { dropRecords(p, 0.5) }},
		{"30% faults, bare", func(p *trialParams) { faultyLink(p, 0.3, false) }},
		{"30% faults, hardened", func(p *trialParams) { faultyLink(p, 0.3, true) }},
	}
	for _, model := range []string{"AU", "AR"} {
		spec, err := modelSpec(model, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		ests := estimatorsFor(model, "")
		seed := trialSeed(9, model, 0)
		// One cache for all four conditions, as a row shares one across its
		// axis values.
		shared := dga.NewPoolCache(spec.Pool, seed, symtab.New())
		for _, c := range conditions {
			trial := func(ests []estimators.Estimator, pools *dga.PoolCache, byName bool) map[string]float64 {
				t.Helper()
				p := defaultTrialParams(spec, 48, seed)
				p.pools = pools
				c.edit(&p)
				if filter := p.observed; byName {
					p.observed = func(observed trace.Observed) trace.Observed {
						if filter != nil {
							observed = filter(observed)
						}
						named := append(trace.Observed(nil), observed...)
						for i := range named {
							named[i].ID = symtab.None
						}
						return named
					}
				}
				out, err := runTrial(p, ests)
				if err != nil {
					t.Fatalf("%s, %s: %v", model, c.name, err)
				}
				return out
			}
			same := func(what string, got, want map[string]float64) {
				t.Helper()
				for _, est := range ests {
					g, ok := got[est.Name()]
					if w := want[est.Name()]; !ok || math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("%s, %s, %s: %s ARE %v, shared trial %v", model, c.name, what, est.Name(), g, w)
					}
				}
			}
			full := trial(ests, shared, false)
			if len(full) != len(ests) {
				t.Fatalf("%s, %s: trial reported %v, want one ARE per estimator", model, c.name, full)
			}
			solo := trial([]estimators.Estimator{estimators.NewTiming()}, shared, false)
			if math.Float64bits(solo["MT"]) != math.Float64bits(full["MT"]) {
				t.Errorf("%s, %s: dedicated MT ARE %v, as second opinion %v", model, c.name, solo["MT"], full["MT"])
			}
			same("private pool cache", trial(ests, nil, false), full)
			same("resolved by name", trial(ests, shared, true), full)
		}
	}
}
