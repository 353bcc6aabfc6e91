package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"botmeter/internal/botnet"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// writeTestTrace simulates a small botnet and writes its observable trace.
func writeTestTrace(t *testing.T, path string) {
	t.Helper()
	net := dnssim.NewNetwork(dnssim.NetworkConfig{
		LocalServers: 1,
		PositiveTTL:  sim.Day,
		NegativeTTL:  2 * sim.Hour,
	})
	spec, err := dga.Lookup("newgoz")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := botnet.NewRunner(botnet.Config{
		Spec:          spec,
		Seed:          1,
		BotsPerServer: map[string]int{"local-00": 8},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(sim.Window{Start: 0, End: sim.Day}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	obs := net.Border.Observed()
	obs.Sort()
	if err := trace.WriteObservedJSONL(f, obs); err != nil {
		t.Fatal(err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "obs.jsonl")
	writeTestTrace(t, in)
	if err := run([]string{"-family", "newgoz", "-seed", "1", "-in", in}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunEstimatorOverrides(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "obs.jsonl")
	writeTestTrace(t, in)
	for _, est := range []string{"MT", "MB", "MB-C", "NC", "MP"} {
		if err := run([]string{"-family", "newgoz", "-seed", "1", "-in", in, "-estimator", est}); err != nil {
			t.Errorf("estimator %s: %v", est, err)
		}
	}
}

func TestRunFlagsValidation(t *testing.T) {
	if err := run([]string{"-in", "/nonexistent"}); err == nil {
		t.Error("missing -family should fail")
	}
	if err := run([]string{"-family", "no-such-family", "-in", "/nonexistent"}); err == nil {
		t.Error("unknown family should fail")
	}
	if err := run([]string{"-family", "newgoz", "-in", "/nonexistent"}); err == nil {
		t.Error("missing input file should fail")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "obs.jsonl")
	writeTestTrace(t, in)
	if err := run([]string{"-family", "newgoz", "-in", in, "-estimator", "XX"}); err == nil {
		t.Error("unknown estimator should fail")
	}
	if err := run([]string{"-family", "newgoz", "-in", in, "-format", "csv"}); err == nil || !strings.Contains(err.Error(), "jsonl") {
		t.Errorf("-format csv: %v, want a refusal naming jsonl", err)
	}
}

// TestRunBINDStrictUnlessLenient: a BIND query log with a garbage line is
// refused by default and charted under -lenient, the JSON-lines policy.
func TestRunBINDStrictUnlessLenient(t *testing.T) {
	in := filepath.Join(t.TempDir(), "queries.log")
	log := "01-Jul-2026 00:00:01.500 client 10.0.0.1#53124: query: evil.example IN A + (192.0.2.53)\n" +
		"this line is garbage\n"
	if err := os.WriteFile(in, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-family", "newgoz", "-format", "bind", "-in", in}); err == nil {
		t.Error("strict bind read accepted a garbage line")
	}
	if err := run([]string{"-family", "newgoz", "-format", "bind", "-lenient", "-in", in}); err != nil {
		t.Errorf("lenient bind read: %v", err)
	}
}

func TestRunEmptyInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(in, []byte("\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-family", "newgoz", "-in", in}); err == nil {
		t.Error("empty trace should fail with a clear error")
	}
}

func TestRunWithDetectionAndOptions(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "obs.jsonl")
	writeTestTrace(t, in)
	if err := run([]string{
		"-family", "newgoz", "-seed", "1", "-in", in,
		"-d3-miss", "0.2", "-second-opinion", "-top", "1",
	}); err != nil {
		t.Fatalf("run with options: %v", err)
	}
}

func TestRunTriageAll(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "obs.jsonl")
	writeTestTrace(t, in) // newGoZ traffic with seed 1
	if err := run([]string{"-family", "all", "-seed", "1", "-in", in}); err != nil {
		t.Fatalf("triage: %v", err)
	}
	// Triage with no input fails cleanly.
	if err := run([]string{"-family", "all", "-in", filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Error("missing input should fail")
	}
}

func TestRunWithPlanAndHTML(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "obs.jsonl")
	writeTestTrace(t, in)
	html := filepath.Join(dir, "report.html")
	if err := run([]string{
		"-family", "newgoz", "-seed", "1", "-in", in,
		"-plan-capacity", "500", "-plan-hosts", "800", "-html", html,
	}); err != nil {
		t.Fatalf("run with plan: %v", err)
	}
	data, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "BotMeter landscape") {
		t.Error("html report content missing")
	}
}
