// Command dgasim generates synthetic DNS traces for a DGA-infected
// network: the cache-filtered observable dataset (what a border vantage
// point sees) and optionally the raw client-level dataset (ground truth),
// both as JSON lines.
//
// Usage:
//
//	dgasim -family newgoz -bots 64 -days 2 -out observed.jsonl -raw raw.jsonl
//	dgasim -family conficker.c -bots 128 -servers 4 -out obs.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"botmeter/internal/botnet"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dgasim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dgasim", flag.ContinueOnError)
	family := fs.String("family", "newGoZ", "DGA family preset (see -list)")
	list := fs.Bool("list", false, "list available family presets and exit")
	bots := fs.Int("bots", 64, "bots per local server")
	servers := fs.Int("servers", 1, "number of local DNS servers")
	days := fs.Int("days", 1, "trace length in epochs")
	seed := fs.Uint64("seed", 1, "simulation seed")
	sigma := fs.Float64("sigma", 0, "activation-rate dynamics σ (0 = constant)")
	negTTL := fs.Duration("neg-ttl", 2*60*60*1e9, "negative cache TTL")
	granularity := fs.Duration("granularity", 100*1e6, "vantage timestamp granularity")
	out := fs.String("out", "", "observable dataset output path (default stdout)")
	raw := fs.String("raw", "", "also write the raw (ground-truth) dataset here")
	live := fs.String("live", "", "send REAL DNS queries to this resolver address instead of simulating")
	liveTimeout := fs.Duration("live-timeout", 500*1e6, "per-query timeout in live mode")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, name := range dga.FamilyNames() {
			spec, _ := dga.Lookup(name)
			fmt.Printf("%-12s %-30s θq=%-6d δi=%v\n", name, spec.ModelName(), spec.ThetaQ, spec.QueryInterval.Duration())
		}
		return nil
	}

	spec, err := dga.Lookup(*family)
	if err != nil {
		return err
	}
	if *live != "" {
		return liveRun(spec, *seed, *bots, *live, *liveTimeout)
	}
	net := dnssim.NewNetwork(dnssim.NetworkConfig{
		LocalServers: *servers,
		PositiveTTL:  sim.Day,
		NegativeTTL:  sim.FromDuration(*negTTL),
		Granularity:  sim.FromDuration(*granularity),
		RecordRaw:    *raw != "",
	})
	botsPerServer := make(map[string]int, *servers)
	for _, id := range net.LocalIDs() {
		botsPerServer[id] = *bots
	}
	runner, err := botnet.NewRunner(botnet.Config{
		Spec:          spec,
		Seed:          *seed,
		Activation:    sim.ActivationModel{Sigma: *sigma},
		BotsPerServer: botsPerServer,
	}, net)
	if err != nil {
		return err
	}
	w := sim.Window{Start: 0, End: sim.Time(*days) * sim.Day}
	res, err := runner.Run(w)
	if err != nil {
		return err
	}

	obs := net.Border.Observed()
	obs.Sort()
	if err := writeObserved(*out, obs); err != nil {
		return err
	}
	if *raw != "" {
		rawData := net.Raw()
		rawData.Sort()
		if err := writeRaw(*raw, rawData); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "family=%s model=%s epochs=%d queries=%d observed=%d c2-contacts=%d\n",
		spec.Name, spec.ModelName(), len(res.Epochs), res.QueriesIssued, len(obs), res.C2Contacts)
	for _, id := range net.LocalIDs() {
		fmt.Fprintf(os.Stderr, "  %s active-bots-per-epoch=%v\n", id, res.ActiveBots[id])
	}
	return nil
}

func writeObserved(path string, obs trace.Observed) error {
	w := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return trace.WriteObservedJSONL(w, obs)
}

func writeRaw(path string, rec trace.Raw) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteRawJSONL(f, rec)
}
