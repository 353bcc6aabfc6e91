// Command botmeter charts the DGA-botnet landscape of a network from a
// border-server DNS trace: it matches lookups against a target family's
// domains, selects the analytical model fitting the family's taxonomy cell
// (MP for uniform barrels, MB for randomcut, MT otherwise), estimates the
// active bot population behind every forwarding server and prints the
// remediation-priority ranking.
//
// The input is JSON lines, what dgasim and vantage write, or with -format
// bind a BIND query log. Either is read strictly unless -lenient is set.
//
// Usage:
//
//	botmeter -family newgoz -seed 1 -in observed.jsonl
//	botmeter -family murofet -seed 1 -in queries.log -format bind -lenient -estimator MT
//	dgasim -family newgoz -bots 64 -out obs.jsonl && botmeter -family newgoz -in obs.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/d3"
	"botmeter/internal/dga"
	"botmeter/internal/estimators"
	"botmeter/internal/obs"
	"botmeter/internal/remediation"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "botmeter:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("botmeter", flag.ContinueOnError)
	family := fs.String("family", "", "target DGA family preset (required)")
	in := fs.String("in", "", "observable dataset path (default stdin)")
	format := fs.String("format", "jsonl", "input format: jsonl, or bind (BIND querylog)")
	lenient := fs.Bool("lenient", false, "skip malformed input lines (torn tails, corrupt records) instead of failing")
	seed := fs.Uint64("seed", 1, "DGA seed used to reconstruct pools")
	estName := fs.String("estimator", "", "force estimator: MT, MP, MB, MB-C, NC (default: by taxonomy)")
	negTTL := fs.Duration("neg-ttl", 2*60*60*1e9, "negative cache TTL δl")
	granularity := fs.Duration("granularity", 0, "vantage timestamp granularity")
	missRate := fs.Float64("d3-miss", 0, "D³ detection miss rate in [0,1)")
	second := fs.Bool("second-opinion", false, "also run the Timing estimator per server")
	topK := fs.Int("top", 0, "print only the top-K servers (0 = all)")
	htmlOut := fs.String("html", "", "also write a self-contained HTML report to this path")
	jsonOut := fs.Bool("json", false, "print the landscape as JSON instead of text")
	planCapacity := fs.Float64("plan-capacity", 0, "hosts the response team can vet per day; > 0 prints a remediation schedule")
	planHosts := fs.Int("plan-hosts", 1000, "assumed hosts behind each local server for the schedule")
	verbose := fs.Bool("verbose", false, "print a per-stage timing summary (trace read, matching, estimation) to stderr")
	workers := fs.Int("workers", 0, "per-server estimation workers (0 = one per CPU capped at 16, 1 = sequential); any value yields identical landscapes")
	follow := fs.Bool("follow", false, "stream the input through the online engine instead of batch analysis; prints the final landscape at EOF or on interrupt")
	followLive := fs.Bool("live", false, "with -follow -in: keep tailing the input file after EOF (live capture, rotation-aware) until interrupted")
	followListen := fs.String("listen", "", "with -follow: serve the evolving landscape at /landscape (plus /metrics, /debug/pprof) on this address")
	reorderWindow := fs.Duration("reorder-window", 2*time.Second, "with -follow: how far out of order timestamps may arrive and still be re-sequenced")
	checkpointDir := fs.String("checkpoint-dir", "", "with -follow: write crash-recovery checkpoints of the engine state to this directory, and on start restore the newest good one and replay -in from its offset")
	checkpointInterval := fs.Duration("checkpoint-interval", 30*time.Second, "with -checkpoint-dir: wall-clock checkpoint cadence (0 disables the time trigger)")
	checkpointEvery := fs.Uint64("checkpoint-every", 0, "with -checkpoint-dir: also checkpoint every N input records (0 disables the count trigger)")
	watch := fs.Duration("watch", 0, "with -follow: print a periodic status line (watermark lag, ingest rate, SLO state) to stderr at this cadence (0 disables)")
	sloFreshness := fs.Duration("slo-freshness", 0, "with -follow: flag the run degraded when any shard's watermark lags the wall clock by more than this (0 disables)")
	sloLoss := fs.Float64("slo-loss", 0, "with -follow: flag the run degraded when the lossy-ingest ratio exceeds this (0 disables)")
	sloDisagree := fs.Float64("slo-disagreement", 0, "with -follow: flag the run degraded when the estimators' relative spread exceeds this (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *family == "" {
		return fmt.Errorf("-family is required (try: all, %s)", strings.Join(dga.FamilyNames(), ", "))
	}
	if *format != "jsonl" && *format != "bind" {
		return fmt.Errorf("-format %q: want jsonl or bind", *format)
	}
	var stages *obs.StageSet
	if *verbose {
		stages = obs.NewStageSet()
		defer func() {
			if table := stages.Table(); table != "" {
				fmt.Fprint(os.Stderr, "\ntimings\n"+table)
			}
		}()
	}
	if strings.EqualFold(*family, "all") {
		return runTriage(*in, *format, *lenient, *seed, sim.FromDuration(*negTTL), sim.FromDuration(*granularity), stages)
	}
	spec, err := dga.Lookup(*family)
	if err != nil {
		return err
	}

	var set []estimators.Estimator
	if *estName != "" {
		est, err := estimators.ByName(*estName)
		if err != nil {
			return err
		}
		set = []estimators.Estimator{est}
	}

	var detection *d3.Window
	if *missRate > 0 {
		detection = &d3.Window{MissRate: *missRate, Seed: *seed ^ 0xd3}
	}

	if *follow {
		return runFollow(core.Config{
			Family:        spec,
			Seed:          *seed,
			NegativeTTL:   sim.FromDuration(*negTTL),
			Granularity:   sim.FromDuration(*granularity),
			Estimators:    set,
			Detection:     detection,
			SecondOpinion: *second,
		}, followConfig{
			in:      *in,
			format:  *format,
			lenient: *lenient,
			live:    *followLive,
			listen:  *followListen,
			reorder: *reorderWindow,
			jsonOut: *jsonOut,
			topK:    *topK,

			checkpointDir:      *checkpointDir,
			checkpointInterval: *checkpointInterval,
			checkpointEvery:    *checkpointEvery,

			watch:        *watch,
			sloFreshness: *sloFreshness,
			sloLoss:      *sloLoss,
			sloDisagree:  *sloDisagree,
		})
	}

	readStage := stages.Start("read-trace")
	observed, err := readObserved(*in, *format, *lenient)
	readStage.End()
	if err != nil {
		return err
	}
	if len(observed) == 0 {
		return fmt.Errorf("no observations in input")
	}
	observed.Sort()

	selectStage := stages.Start("select-model")
	bm, err := core.New(core.Config{
		Family:        spec,
		Seed:          *seed,
		NegativeTTL:   sim.FromDuration(*negTTL),
		Granularity:   sim.FromDuration(*granularity),
		Estimators:    set,
		Detection:     detection,
		SecondOpinion: *second,
		Workers:       *workers,
		Stages:        stages,
	})
	selectStage.End()
	if err != nil {
		return err
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "botmeter: family %s (%s), estimator %s, %d observation(s)\n",
			spec.Name, spec.ModelName(), bm.EstimatorName(), len(observed))
	}
	// Analysis window: epoch-aligned around the data.
	start := (observed[0].T / sim.Day) * sim.Day
	end := (observed[len(observed)-1].T/sim.Day + 1) * sim.Day
	land, err := bm.Analyze(observed, sim.Window{Start: start, End: end})
	if err != nil {
		return err
	}
	if *topK > 0 {
		land.Servers = land.Top(*topK)
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if err := (core.HTMLReport{Landscape: land}).WriteHTML(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote HTML report to %s\n", *htmlOut)
	}
	if *jsonOut {
		if err := land.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		fmt.Print(land.String())
	}
	if *planCapacity > 0 {
		sites, err := remediation.FromLandscape(land, nil, *planHosts)
		if err != nil {
			return err
		}
		plan, err := remediation.Build(sites, *planCapacity)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(plan.String())
	}
	if *second {
		fmt.Printf("\n%-12s %12s %12s\n", "server", spec.Name+" ("+land.Estimator+")", "MT opinion")
		for _, s := range land.Servers {
			fmt.Printf("%-12s %12.1f %12.1f\n", s.Server, s.Population, s.SecondOpinion)
		}
	}
	return nil
}

func readObserved(path, format string, lenient bool) (trace.Observed, error) {
	r := os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	read := trace.ReadObserved
	if format == "bind" {
		read = trace.ReadBINDLog
	}
	obs, res, err := read(r, trace.ReadOptions{Lenient: lenient})
	if err != nil {
		return nil, err
	}
	if res.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "botmeter: skipped %d malformed line(s) in %s input\n", res.Skipped, format)
	}
	return obs, nil
}
