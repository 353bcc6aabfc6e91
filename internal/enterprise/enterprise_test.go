package enterprise

import (
	"math"
	"slices"
	"strings"
	"testing"

	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

func tinyConfig() Config {
	return Config{
		Days:                   3,
		Seed:                   1,
		BenignClients:          50,
		BenignLookupsPerClient: 5,
		BenignZoneSize:         200,
		Infections: []Infection{
			{
				Spec: dga.Spec{
					Name:          "mini-AR",
					Pool:          dga.DrainReplenish{NX: 495, C2: 5, Gen: dga.DefaultGenerator},
					Barrel:        dga.RandomCut{},
					ThetaQ:        50,
					QueryInterval: sim.Second,
				},
				Seed:       7,
				MeanActive: 12,
				Volatility: 0.3,
			},
		},
	}
}

func TestGenerateBasics(t *testing.T) {
	tr, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Days != 3 {
		t.Errorf("days = %d", tr.Days)
	}
	if len(tr.Observed) == 0 {
		t.Fatal("no observations")
	}
	// Sorted by timestamp.
	for i := 1; i < len(tr.Observed); i++ {
		if tr.Observed[i].T < tr.Observed[i-1].T {
			t.Fatal("observed dataset not sorted")
		}
	}
	// Second-granularity timestamps.
	for _, rec := range tr.Observed[:100] {
		if rec.T%sim.Second != 0 {
			t.Fatalf("timestamp %v not truncated to 1 s", rec.T)
		}
	}
	// Ground truth per family per day.
	gt := tr.GroundTruth["mini-AR"]
	if len(gt) != 3 {
		t.Fatalf("ground truth = %v", gt)
	}
	for day, n := range gt {
		if n <= 0 {
			t.Errorf("day %d: no active bots (mean 12, volatility 0.3)", day)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Observed) != len(b.Observed) {
		t.Fatalf("nondeterministic sizes: %d vs %d", len(a.Observed), len(b.Observed))
	}
	for i := range a.GroundTruth["mini-AR"] {
		if a.GroundTruth["mini-AR"][i] != b.GroundTruth["mini-AR"][i] {
			t.Fatal("nondeterministic ground truth")
		}
	}
}

// TestGenerateIgnoresPoolHistory: the benign pass issues unsorted times, so
// when a cache evicts decides later answers. That point must follow from the
// trace's own stores, not from the size of whatever slot array an earlier
// simulation left in dnssim's pool.
func TestGenerateIgnoresPoolHistory(t *testing.T) {
	cfg := tinyConfig()
	cfg.Days, cfg.BenignClients, cfg.BenignLookupsPerClient, cfg.BenignZoneSize = 4, 200, 10, 3000
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Leave a slot array far larger than this trace needs in the pool.
	big := dnssim.NewCache(sim.Day, sim.Day)
	for id := symtab.ID(1); id <= 1<<16; id++ {
		big.StoreID(0, id, true)
	}
	big.Release()
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Observed, b.Observed) {
		t.Fatalf("same config, different traces: %d records, then %d with a primed pool", len(a.Observed), len(b.Observed))
	}
}

func TestGenerateContainsBenignAndDGA(t *testing.T) {
	tr, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	benign, dgaCount := 0, 0
	for _, rec := range tr.Observed {
		// One name space: benign and DGA records alike carry their ID in the
		// trace's table.
		if rec.ID == symtab.None || tr.tab.Resolve(rec.ID) != rec.Domain {
			t.Fatalf("record %+v does not carry its domain's ID", rec)
		}
		if strings.HasSuffix(rec.Domain, ".example.com") {
			benign++
		} else {
			dgaCount++
		}
	}
	if benign == 0 {
		t.Error("no benign lookups at the vantage point")
	}
	if dgaCount == 0 {
		t.Error("no DGA lookups at the vantage point")
	}
	// Caching should have absorbed many benign repeats: forwarded benign
	// lookups are far fewer than issued (50 clients × 5 × 3 days = 750).
	if benign >= 750 {
		t.Errorf("benign forwards %d, expected cache-filtered (< 750)", benign)
	}
}

func TestVolatilityZeroGivesStablePopulations(t *testing.T) {
	cfg := tinyConfig()
	cfg.Infections[0].Volatility = 0
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gt := tr.GroundTruth["mini-AR"]
	for _, n := range gt {
		// Constant daily target of 12; realised active bots fluctuate only
		// through activation-spill randomness.
		if math.Abs(float64(n)-12) > 6 {
			t.Errorf("daily population %d too far from mean 12", n)
		}
	}
}

func TestDHCPChurnChangesNothingObservable(t *testing.T) {
	// Client IP churn is invisible at the vantage point (client identity
	// never reaches the border) and must not disturb ground truth.
	base := tinyConfig()
	churn := tinyConfig()
	churn.DHCPChurn = true
	a, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(churn)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range a.GroundTruth["mini-AR"] {
		if b.GroundTruth["mini-AR"][i] != n {
			t.Fatal("churn changed ground truth")
		}
	}
	// DGA-matched observations are identical; benign cache behaviour may
	// differ slightly (different per-client caching), but volumes stay in
	// the same ballpark.
	if len(b.Observed) == 0 {
		t.Fatal("churn produced empty trace")
	}
	ratio := float64(len(b.Observed)) / float64(len(a.Observed))
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("churn changed trace volume drastically: %d vs %d", len(b.Observed), len(a.Observed))
	}
}

func TestValidateRejectsBadInfection(t *testing.T) {
	cfg := tinyConfig()
	cfg.Infections[0].MeanActive = -5
	if _, err := Generate(cfg); err == nil {
		t.Error("negative mean should fail")
	}
	cfg = tinyConfig()
	cfg.Infections[0].Spec = dga.Spec{}
	if _, err := Generate(cfg); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Days <= 0 || c.BenignClients <= 0 || c.Granularity != sim.Second {
		t.Errorf("defaults incomplete: %+v", c)
	}
}

func TestPoissonCount(t *testing.T) {
	rng := sim.NewRNG(4)
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += float64(poissonCount(rng, 7))
	}
	if mean := sum / n; math.Abs(mean-7) > 0.3 {
		t.Errorf("Poisson(7) sample mean %v", mean)
	}
	// Large-mean branch.
	sum = 0
	for i := 0; i < n; i++ {
		sum += float64(poissonCount(rng, 100))
	}
	if mean := sum / n; math.Abs(mean-100) > 2 {
		t.Errorf("Poisson(100) sample mean %v", mean)
	}
	if poissonCount(rng, 0) != 0 {
		t.Error("zero mean should give zero")
	}
}

func TestZipfSkew(t *testing.T) {
	rng := sim.NewRNG(5)
	z := newZipf(rng, 1.1, 1000)
	counts := make(map[uint64]int)
	for i := 0; i < 20000; i++ {
		counts[z.Uint64()]++
	}
	// Rank 0 must dominate deep ranks.
	if counts[0] < 20*counts[500]+1 {
		t.Errorf("Zipf not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
}
