// Command bench is the repository benchmark (see README.md and
// ../BENCHMARK.json). One invocation runs one workload for a fixed time,
// checks what the system under test produced, and prints the metrics:
//
//	bench --workload border-tap --seed 7 --seconds 12 --trace 0
//
// ends with one JSON line {"correct","attempted","failed","metrics"}.
// With -workload all, or -repeat N, it re-executes itself once per run,
// interleaving the workloads, and prints median and quartiles per metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{"resolver-hit", runWire},
	{"chain-miss", runWire},
	{"border-tap", runWire},
	{"border-tap-safe", runWire},
	{"stream-replay", runStreamReplay},
	{"batch-eval", runBatchEval},
}

// env is what a workload run is given.
type env struct {
	workload string
	root     string  // repository root: holds cmd/ and internal/
	tmp      string  // this run's scratch directory, removed on exit
	seed     uint64  // generates every input
	seconds  float64 // how long to measure
	short    bool    // smoke-test sizes
	tr       *tracer // nil on the untraced run
	log      io.Writer
}

// scale divides the in-process workloads' input sizes.
func (e *env) scale() int {
	if e.short {
		return 8
	}
	return 1
}

// setupRepeats is how many times a workload sets up, so that setup_s is a
// median. Every repetition starts from nothing: fresh daemons, fresh inputs.
const setupRepeats = 3

// medianSetup runs setup setupRepeats times (once when short) and returns
// the median duration in seconds. What the last call built is what the
// measurement uses.
func (e *env) medianSetup(setup func() error) (float64, error) {
	n := setupRepeats
	if e.short {
		n = 1
	}
	var took []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return median(took), nil
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	failures          []string // correctness checks that did not hold
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// check records a correctness assertion; the message describes the failure.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// machine stamps a result file with where it was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Listeners  int    `json:"listeners"`
}

func machineStamp(root string) machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Listeners:  wireListeners,
		Commit:     "unknown",
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(b))
	}
	return m
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 2016, "seed that generates every input")
	seconds := fs.Float64("seconds", 16, "how long one run measures")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
	repeat := fs.Int("repeat", 1, "runs per workload, interleaved; prints median and quartiles")
	short := fs.Bool("short", false, "smoke-test input sizes")
	root := fs.String("root", "", "repository root (default: found from the working directory)")
	outPath := fs.String("out", "", "with -workload all or -repeat: write every run's metrics and the machine stamp here as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1, -seconds is positive, -repeat is at least 1")
		return 2
	}
	if *root == "" {
		var err error
		if *root, err = findRoot(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if *name == "all" || *repeat > 1 {
		child := []string{"-root", *root, "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace), fmt.Sprintf("-short=%t", *short)}
		if err := runMany(ctx, *name, *repeat, *seed, defs, *outPath, *root, child, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	// The contract allows a run 180 s; stop well inside it whatever happens.
	ctx, cancel := context.WithTimeout(ctx, 150*time.Second)
	defer cancel()
	scratch := filepath.Join(*root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(scratch, *name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{workload: *name, root: *root, tmp: tmp, seed: *seed, seconds: *seconds, short: *short, log: stderr}
	if *trace == 1 {
		e.tr = newTracer(*name)
	}
	fmt.Fprintf(stderr, "machine: %+v\n", machineStamp(*root))
	out, err := w.run(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if e.tr != nil {
		spans := filepath.Join(*root, ".bench_build", "spans-"+*name+".jsonl")
		if err := e.tr.writeJSONL(spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "%d spans written to %s\n", len(e.tr.spans), spans)
		e.tr.printSelfTimes(stderr)
	}
	res := result{Correct: len(out.failures) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stderr, "%-34s %16s %s\n", "metric ("+*name+")", "value", "unit")
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && e.tr == nil {
			out.failures = append(out.failures, "no value for "+d.name)
			res.Correct = false
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(stderr, "%-34s %16.4f %s\n", d.name, v, d.unit)
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "CHECK FAILED: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the directory whose go.mod
// declares module botmeter.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module botmeter\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no botmeter module above the working directory; pass -root")
		}
		dir = parent
	}
}

// runMany runs the chosen workloads repeat times, interleaved (A B C … A B C
// …) so that drift of the machine spreads over all of them, each run in a
// child process of its own so that rss_mb is the workload's alone.
func runMany(ctx context.Context, name string, repeat int, seed uint64, defs []metricDef, outPath, root string, childArgs []string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	for _, w := range workloads {
		if name == "all" || name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	type run struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		result
	}
	var runs []run
	for r := 0; r < repeat; r++ {
		for _, n := range names {
			args := append([]string{"-workload", n, "-seed", fmt.Sprint(seed + uint64(r))}, childArgs...)
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stderr = stderr
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.WaitDelay = 20 * time.Second
			out, err := cmd.Output()
			var res result
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				return fmt.Errorf("%s run %d: %v (no result line)", n, r+1, errors.Join(err, jerr))
			}
			if err != nil {
				return fmt.Errorf("%s run %d: %w", n, r+1, err)
			}
			runs = append(runs, run{n, seed + uint64(r), res})
		}
	}
	fmt.Fprintf(stdout, "%-16s %-30s %14s %14s %14s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit")
	for _, n := range names {
		for _, d := range defs {
			var values []float64
			for _, r := range runs {
				if r.Workload == n {
					values = append(values, r.Metrics[d.name].Value)
				}
			}
			s := sortedCopy(values)
			med, q1, q3 := quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(stdout, "%-16s %-30s %14.4f %14.4f %14.4f %7.1f%%  %s\n", n, d.name, med, q1, q3, spread*100, d.unit)
		}
	}
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(struct {
		Machine machine `json:"machine"`
		Runs    []run   `json:"runs"`
	}{machineStamp(root), runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}
