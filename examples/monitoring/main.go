// Monitoring: run BotMeter daily over a two-week enterprise trace and keep
// a longitudinal trend per local server — growth triage, sparklines, CSV
// export — the operational loop the paper's introduction motivates
// ("quickly navigate the threat landscapes of their networks").
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"log"
	"os"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/enterprise"
	"botmeter/internal/sim"
)

func main() {
	const days = 14

	// A newGoZ infection that grows through the window (volatile walk
	// around a rising mean is approximated by high volatility).
	infection := enterprise.Infection{
		Spec:       dga.NewGoZ(),
		Seed:       77,
		MeanActive: 24,
		Volatility: 0.6,
	}
	tr, err := enterprise.Generate(enterprise.Config{
		Days:          days,
		Seed:          77,
		BenignClients: 200,
		Granularity:   sim.Second,
		Infections:    []enterprise.Infection{infection},
	})
	if err != nil {
		log.Fatal(err)
	}

	bm, err := core.New(core.Config{
		Family:      infection.Spec,
		Seed:        infection.Seed,
		Granularity: sim.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	trend := core.NewTrend(infection.Spec.Name)
	var last *core.Landscape
	for day := 0; day < days; day++ {
		w := sim.Window{Start: sim.Time(day) * sim.Day, End: sim.Time(day+1) * sim.Day}
		land, err := bm.Analyze(tr.Observed.WindowSorted(w), w) // Generate sorts its trace
		if err != nil {
			log.Fatal(err)
		}
		trend.Add(land)
		last = land
	}

	fmt.Printf("=== %s monitored for %d days (estimator %s) ===\n",
		infection.Spec.Name, days, bm.EstimatorName())
	fmt.Printf("%-10s %-16s %8s %8s\n", "server", "trend", "latest", "growth")
	for server, series := range trend.Series {
		fmt.Printf("%-10s %-16s %8.1f %+7.0f%%\n",
			server, trend.Sparkline(server),
			series[len(series)-1], 100*trend.Growth(server))
	}

	fmt.Println("\nground truth (daily active bots):", tr.GroundTruth[infection.Spec.Name])

	fmt.Println("\nlatest landscape as CSV (for dashboards/ticketing):")
	if err := last.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
