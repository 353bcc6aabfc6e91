// Command benchgen regenerates the paper's evaluation artifacts: the five
// Figure 6 panels, Figure 7, Table I and Table II. Text renderings go to
// stdout; CSVs are written next to -outdir when set.
//
// Usage:
//
//	benchgen -artifact all                # everything (minutes)
//	benchgen -artifact fig6a -trials 10   # one panel
//	benchgen -artifact fig7 -days 60      # enterprise evaluation
//	benchgen -artifact table1             # parameter table (instant)
//	benchgen -artifact fig7 -chart        # ASCII population chart
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"botmeter/internal/experiments"
	"botmeter/internal/obs"
	"botmeter/internal/parallel"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchgen", flag.ContinueOnError)
	artifact := fs.String("artifact", "all", "artifact to regenerate: all, table1, fig6, fig6a..fig6e, fig7, table2, reactivation, taxonomy, missing, chaos, stream, stream-checkpoint")
	trials := fs.Int("trials", 10, "trials per Figure 6 point")
	population := fs.Int("population", 64, "default bot population N")
	days := fs.Int("days", 60, "enterprise trace length for fig7/table2")
	seed := fs.Uint64("seed", 2016, "experiment seed")
	scale := fs.Float64("scale", 1, "DGA pool scale factor (1 = Table I parameters)")
	outdir := fs.String("outdir", "", "directory for CSV outputs (optional)")
	chart := fs.Bool("chart", false, "render ASCII charts for fig7 series")
	models := fs.String("models", "", "comma-separated DGA models for fig6 (default all)")
	timings := fs.Bool("timings", false, "print a per-stage wall/alloc timing table to stderr after the artifact")
	workers := fs.Int("workers", 0, "parallel workers for trial loops (0 = one per CPU, 1 = sequential); any value renders identical artifacts")
	benchJSON := fs.String("bench-json", "", "append a benchmark record (wall time, ns/trial, allocs/trial, workers) for this invocation to the given JSON file")
	benchNote := fs.String("bench-note", "", "free-form comment stored on the -bench-json record (e.g. machine caveats)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var stages *obs.StageSet
	if *timings {
		stages = obs.NewStageSet()
		defer func() {
			if stats := stages.SortedStats(); len(stats) > 0 {
				fmt.Fprint(os.Stderr, "\npipeline timings\n"+stages.Table())
			}
		}()
	}
	var reg *obs.Registry
	if *benchJSON != "" {
		reg = obs.NewRegistry()
	}

	sweep := experiments.SweepConfig{
		Trials:     *trials,
		Population: *population,
		Seed:       *seed,
		Scale:      *scale,
		Workers:    *workers,
		Stages:     stages,
		Obs:        reg,
	}
	if *models != "" {
		sweep.Models = strings.Split(*models, ",")
	}
	f7 := experiments.Fig7Config{Days: *days, Seed: sweep.Seed, Scale: sweep.Scale, Workers: sweep.Workers, Stages: sweep.Stages, Obs: sweep.Obs}

	g := genOpts{artifact: *artifact, sweep: sweep, f7: f7, days: *days, outdir: *outdir, chart: *chart}
	if *benchJSON == "" {
		return generate(g)
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := generate(g); err != nil {
		return err
	}
	return appendBenchRecord(*benchJSON, *artifact, *workers, *benchNote, reg, t0, m0)
}

// genOpts carries one artifact invocation's settings.
type genOpts struct {
	artifact string
	// sweep configures every synthetic artifact — the Figure 6 panels, the
	// missing-observations and chaos sweeps and the taxonomy grid — and
	// holds the seed, scale, worker count and registry every other artifact
	// reads too.
	sweep  experiments.SweepConfig
	f7     experiments.Fig7Config
	days   int
	outdir string
	chart  bool
}

func generate(g genOpts) error {
	panels := map[string]func(experiments.SweepConfig) ([]experiments.SweepPoint, error){
		"fig6a": experiments.Figure6a,
		"fig6b": experiments.Figure6b,
		"fig6c": experiments.Figure6c,
		"fig6d": experiments.Figure6d,
		"fig6e": experiments.Figure6e,
	}

	switch g.artifact {
	case "table1":
		fmt.Print(experiments.RenderTableI())
		return nil
	case "fig6a", "fig6b", "fig6c", "fig6d", "fig6e":
		pts, err := panels[g.artifact](g.sweep)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig6(pts))
		return writeFig6CSV(g.outdir, g.artifact, pts)
	case "fig6":
		pts, err := experiments.Figure6(g.sweep)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig6(pts))
		return writeFig6CSV(g.outdir, "fig6", pts)
	case "missing":
		pts, err := experiments.MissingObservations(g.sweep)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderMissingObs(pts))
		return nil
	case "chaos":
		pts, err := experiments.ChaosSweep(g.sweep)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderChaos(pts))
		return nil
	case "taxonomy":
		// The grid runs at its own N = 32 whatever -population says.
		grid := g.sweep
		grid.Population = 0
		cells, err := experiments.TaxonomyGrid(grid)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTaxonomyGrid(cells))
		return nil
	case "reactivation":
		rows, err := experiments.Reactivation(experiments.ReactivationConfig{
			Days: g.days, Seed: g.sweep.Seed, Workers: g.sweep.Workers, Obs: g.sweep.Obs,
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderReactivation(rows))
		return nil
	case "stream", "stream-checkpoint":
		return streamBench(g, g.artifact == "stream-checkpoint")
	case "fig7", "table2":
		series, err := experiments.Figure7(g.f7)
		if err != nil {
			return err
		}
		if g.artifact == "fig7" {
			fmt.Print(experiments.RenderFig7(series))
			if g.chart {
				for _, s := range series {
					fmt.Println(experiments.ASCIIChart(s, 60))
				}
			}
			if err := writeFig7CSV(g.outdir, series); err != nil {
				return err
			}
		}
		fmt.Print(experiments.RenderTableII(experiments.TableII(series)))
		return nil
	case "all":
		fmt.Print(experiments.RenderTableI())
		fmt.Println()
		pts, err := experiments.Figure6(g.sweep)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig6(pts))
		if err := writeFig6CSV(g.outdir, "fig6", pts); err != nil {
			return err
		}
		series, err := experiments.Figure7(g.f7)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig7(series))
		fmt.Print(experiments.RenderTableII(experiments.TableII(series)))
		return writeFig7CSV(g.outdir, series)
	default:
		return fmt.Errorf("unknown artifact %q", g.artifact)
	}
}

// BenchRecord is one -bench-json entry: the wall-clock and allocator cost
// of regenerating an artifact at a given worker count. Trials is read from
// the run's experiments_trials_total counter (one trial = one simulated
// run or one analysed day); AllocsPerTrial divides the process-wide
// allocation delta across trials, so it is an attribution, exact at
// workers=1 and shared-cost-inclusive otherwise.
type BenchRecord struct {
	Artifact       string  `json:"artifact"`
	Workers        int     `json:"workers"`
	ResolvedW      int     `json:"resolved_workers"`
	CPUs           int     `json:"cpus"`
	GoVersion      string  `json:"go_version"`
	Trials         uint64  `json:"trials"`
	WallNS         int64   `json:"wall_ns"`
	NSPerTrial     int64   `json:"ns_per_trial"`
	AllocsPerTrial uint64  `json:"allocs_per_trial"`
	AllocMB        float64 `json:"alloc_mb"`
	RecordedAt     string  `json:"recorded_at"`
	// Comment carries free-form measurement caveats (e.g. "1-core CI
	// container: engine overhead dominates, not speedup").
	Comment string `json:"comment,omitempty"`
}

// canonicalKey is a record's identity within one measurement batch: the
// worker flag is resolved before keying, so `-workers 0` and `-workers 1` on
// a 1-core host (both resolving to one worker) produce ONE canonical record
// instead of two redundant trajectory entries.
func (r BenchRecord) canonicalKey() string {
	return fmt.Sprintf("%s|w%d|c%d|%s|t%d", r.Artifact, r.ResolvedW, r.CPUs, r.GoVersion, r.Trials)
}

// appendBenchRecord measures the run just completed and appends it to the
// JSON array at path (created when absent). Emission is deduplicated by
// resolved worker count: when the file's trailing record carries the same
// canonical key (artifact, resolved_workers, cpus, go version, trials), the
// new measurement replaces it rather than appending — back-to-back
// `-workers 0` / `-workers 1` runs therefore leave one canonical record,
// while historical (non-adjacent) trajectory entries are preserved.
func appendBenchRecord(path, artifact string, workers int, note string, reg *obs.Registry, t0 time.Time, m0 runtime.MemStats) error {
	wall := time.Since(t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	trials := reg.CounterValue("experiments_trials_total")
	rec := BenchRecord{
		Artifact:   artifact,
		Workers:    workers,
		ResolvedW:  parallel.Workers(workers),
		CPUs:       runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Trials:     trials,
		WallNS:     wall.Nanoseconds(),
		AllocMB:    float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		Comment:    note,
	}
	if trials > 0 {
		rec.NSPerTrial = wall.Nanoseconds() / int64(trials)
		rec.AllocsPerTrial = (m1.Mallocs - m0.Mallocs) / trials
	}
	var records []BenchRecord
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &records); err != nil {
			return fmt.Errorf("bench-json %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if n := len(records); n > 0 && records[n-1].canonicalKey() == rec.canonicalKey() {
		// Same batch, same resolved shape (e.g. -workers 0 after -workers 1
		// on a 1-core host): latest measurement wins, one canonical record.
		records[n-1] = rec
	} else {
		records = append(records, rec)
	}
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func writeFig6CSV(dir, name string, pts []experiments.SweepPoint) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiments.WriteFig6CSV(f, pts); err != nil {
		return err
	}
	return f.Close()
}

func writeFig7CSV(dir string, series []experiments.Fig7Series) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "fig7.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiments.WriteFig7CSV(f, series); err != nil {
		return err
	}
	return f.Close()
}
