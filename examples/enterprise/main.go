// Enterprise: chart a Conficker-style outbreak across a large network with
// eight local DNS servers behind two mid-tier servers, mixed with benign
// traffic — the deployment scenario of the paper's introduction. BotMeter
// ranks the sub-networks so a response team knows where to go first.
//
//	go run ./examples/enterprise
package main

import (
	"fmt"
	"log"

	"botmeter/internal/botnet"
	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/estimators"
	"botmeter/internal/sim"
)

func main() {
	const seed = 7

	// Three-level hierarchy: 8 local servers, 2 mid-tiers, 1 border.
	net := dnssim.NewNetwork(dnssim.NetworkConfig{
		LocalServers: 8,
		MidTierFanIn: 4,
		PositiveTTL:  sim.Day,
		NegativeTTL:  2 * sim.Hour,
		Granularity:  sim.Second,
	})

	// Benign background: the registry resolves a popular zone, and office
	// clients query it all day (cache-absorbed almost entirely).
	for i := 0; i < 500; i++ {
		net.Register(fmt.Sprintf("corp-app-%03d.example.com", i))
	}
	rng := sim.NewRNG(99)
	for c := 0; c < 400; c++ {
		client := fmt.Sprintf("10.1.%d.%d", c/200, c%200)
		for q := 0; q < 10; q++ {
			at := sim.Time(rng.Int64N(int64(sim.Day)))
			domain := fmt.Sprintf("corp-app-%03d.example.com", rng.IntN(500))
			if _, err := net.ClientQuery(at, client, domain); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Uneven Conficker.C infection: some sites are hotspots.
	family := dga.ConfickerC()
	infection := map[string]int{
		"local-00": 4, "local-01": 48, "local-02": 12, "local-03": 2,
		"local-04": 0, "local-05": 25, "local-06": 7, "local-07": 90,
	}
	runner, err := botnet.NewRunner(botnet.Config{
		Spec:          family,
		Seed:          seed,
		BotsPerServer: infection,
	}, net)
	if err != nil {
		log.Fatal(err)
	}
	day := sim.Window{Start: 0, End: sim.Day}
	truth, err := runner.Run(day)
	if err != nil {
		log.Fatal(err)
	}

	// Conficker.C samples its barrel (AS): the paper pairs it with the
	// Timing estimator.
	bm, err := core.New(core.Config{
		Family:      family,
		Seed:        seed,
		Granularity: sim.Second,
		Estimators:  []estimators.Estimator{estimators.NewTiming()},
	})
	if err != nil {
		log.Fatal(err)
	}
	landscape, err := bm.Analyze(net.Border.Observed(), day)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(landscape)
	fmt.Println("\nNOTE: mid-tier servers aggregate their children, so the vantage")
	fmt.Println("point attributes lookups to mid-00/mid-01; per-site estimates need")
	fmt.Println("taps below the mid-tier — exactly the paper's visibility trade-off.")

	fmt.Println("\nground truth (activated bots per local server):")
	for _, id := range net.LocalIDs() {
		fmt.Printf("  %-10s %3d\n", id, truth.ActiveBots[id][0])
	}

	// Re-run with the vantage point directly above the local servers.
	fmt.Println("\n--- with the vantage point directly above local servers ---")
	flat := dnssim.NewNetwork(dnssim.NetworkConfig{
		LocalServers: 8,
		PositiveTTL:  sim.Day,
		NegativeTTL:  2 * sim.Hour,
		Granularity:  sim.Second,
	})
	runner2, err := botnet.NewRunner(botnet.Config{
		Spec:          family,
		Seed:          seed,
		BotsPerServer: infection,
	}, flat)
	if err != nil {
		log.Fatal(err)
	}
	truth2, err := runner2.Run(day)
	if err != nil {
		log.Fatal(err)
	}
	bm2, err := core.New(core.Config{
		Family:      family,
		Seed:        seed,
		Granularity: sim.Second,
		Estimators:  []estimators.Estimator{estimators.NewTiming()},
	})
	if err != nil {
		log.Fatal(err)
	}
	landscape2, err := bm2.Analyze(flat.Border.Observed(), day)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(landscape2)
	fmt.Println("\nremediation order vs ground truth:")
	for i, s := range landscape2.Servers {
		fmt.Printf("  #%d %-10s est %6.1f actual %3d\n",
			i+1, s.Server, s.Population, truth2.ActiveBots[s.Server][0])
	}
}
