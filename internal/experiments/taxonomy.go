package experiments

import (
	"fmt"
	"strings"

	"botmeter/internal/dga"
	"botmeter/internal/estimators"
	"botmeter/internal/sim"
	"botmeter/internal/stats"
)

// TaxonomyCell is one pool×barrel combination's result.
type TaxonomyCell struct {
	Pool      string
	Barrel    string
	Estimator string
	Wild      string // representative family, or "?" (unseen in the wild)
	ARE       stats.Quartiles
}

// gridSpec builds a runnable spec for any pool×barrel combination, using
// the wild representative's parameters where one exists (paper Figure 3)
// and θ-matched synthetic parameters for the "?" cells.
func gridSpec(pool dga.PoolClass, barrel dga.BarrelClass) (dga.Spec, string) {
	var barrelModel dga.BarrelModel
	switch barrel {
	case dga.UniformBarrel:
		barrelModel = dga.Uniform{}
	case dga.SamplingBarrel:
		barrelModel = dga.Sampling{}
	case dga.RandomCutBarrel:
		barrelModel = dga.RandomCut{}
	default:
		barrelModel = dga.Permutation{}
	}

	// Wild representatives per Figure 3.
	wild := map[[2]int]dga.Spec{
		{int(dga.DrainReplenishPool), int(dga.UniformBarrel)}:     dga.Murofet(),
		{int(dga.DrainReplenishPool), int(dga.SamplingBarrel)}:    dga.ConfickerC(),
		{int(dga.DrainReplenishPool), int(dga.RandomCutBarrel)}:   dga.NewGoZ(),
		{int(dga.DrainReplenishPool), int(dga.PermutationBarrel)}: dga.Necurs(),
		{int(dga.SlidingWindowPool), int(dga.UniformBarrel)}:      dga.PushDo(),
		{int(dga.SlidingWindowPool), int(dga.PermutationBarrel)}:  dga.Ranbyus(),
		{int(dga.MultipleMixturePool), int(dga.UniformBarrel)}:    dga.Pykspa(),
	}
	if s, ok := wild[[2]int{int(pool), int(barrel)}]; ok {
		// Shrink the two heaviest wild cells so a full-grid sweep stays
		// interactive; shapes are insensitive to the 10× reduction.
		if s.Name == "Conficker.C" || s.Name == "newGoZ" {
			s = ScaledSpec(s, 0.2)
		}
		return s, s.Name
	}

	// Synthetic "?" cells: θ-matched to the pool class's wild siblings.
	var poolModel dga.PoolModel
	switch pool {
	case dga.SlidingWindowPool:
		poolModel = dga.SlidingWindow{PerDay: 40, Back: 30, C2: 3, Gen: dga.DefaultGenerator}
	case dga.MultipleMixturePool:
		poolModel = dga.MultipleMixture{UsefulNX: 198, UsefulC2: 2, NoiseSizes: []int{2000}, Gen: dga.DefaultGenerator}
	default:
		poolModel = dga.DrainReplenish{NX: 1995, C2: 5, Gen: dga.DefaultGenerator}
	}
	spec := dga.Spec{
		Name:          fmt.Sprintf("synthetic-%s-%s", pool, barrel),
		Pool:          poolModel,
		Barrel:        barrelModel,
		ThetaQ:        200,
		QueryInterval: sim.Second,
	}
	return spec, "?"
}

// TaxonomyGrid runs every pool×barrel combination through the simulator
// and its taxonomy-selected estimator — executing the paper's Figure 3 as
// code, "?" cells included. Each cell is a row of one point.
func TaxonomyGrid(cfg SweepConfig) ([]TaxonomyCell, error) {
	cfg = cfg.withDefaults(5, 32)
	pools := []dga.PoolClass{dga.DrainReplenishPool, dga.SlidingWindowPool, dga.MultipleMixturePool}
	barrels := []dga.BarrelClass{dga.UniformBarrel, dga.SamplingBarrel, dga.RandomCutBarrel, dga.PermutationBarrel}
	var cells []TaxonomyCell
	for _, p := range pools {
		for _, b := range barrels {
			spec, wildName := gridSpec(p, b)
			pts, err := row{
				cfg: cfg, artifact: "taxonomy", seedLabel: spec.Name,
				spec: spec, ests: []estimators.Estimator{estimators.ForModel(spec)},
			}.sweep([]float64{0}, func(*trialParams, int, int) {})
			if err != nil {
				return nil, err
			}
			cells = append(cells, TaxonomyCell{
				Pool:      p.String(),
				Barrel:    b.String(),
				Estimator: pts[0].Estimator,
				Wild:      wildName,
				ARE:       pts[0].ARE,
			})
		}
	}
	return cells, nil
}

// RenderTaxonomyGrid prints the grid.
func RenderTaxonomyGrid(cells []TaxonomyCell) string {
	var b strings.Builder
	b.WriteString("Extension — the full Figure 3 taxonomy, executed (median ARE per cell)\n")
	fmt.Fprintf(&b, "%-20s %-12s %-12s %-5s %8s %8s %8s\n",
		"pool", "barrel", "wild family", "est", "p25", "p50", "p75")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-20s %-12s %-12s %-5s %8.3f %8.3f %8.3f\n",
			c.Pool, c.Barrel, c.Wild, c.Estimator, c.ARE.P25, c.ARE.P50, c.ARE.P75)
	}
	b.WriteString("\n\"?\" rows are combinations unseen in the wild (paper Figure 3);\n")
	b.WriteString("the library simulates and estimates them all the same.\n")
	return b.String()
}
