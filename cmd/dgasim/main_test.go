package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"botmeter/internal/trace"
)

// readObservedFile strictly reads a JSON-lines observable dataset.
func readObservedFile(t *testing.T, path string) trace.Observed {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	obs, _, err := trace.ReadObserved(f, trace.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

// The command line that used to write both datasets as CSV (the old
// default format) still runs unchanged; both files now hold JSON lines,
// whatever the paths' extensions say.
func TestRunGeneratesCSV(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "obs.csv")
	raw := filepath.Join(dir, "raw.csv")
	if err := run([]string{"-family", "srizbi", "-bots", "5", "-days", "1", "-out", out, "-raw", raw}); err != nil {
		t.Fatal(err)
	}
	obs := readObservedFile(t, out)
	if len(obs) == 0 {
		t.Error("no observations written")
	}
	rf, err := os.Open(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	var rawRecs trace.Raw
	for dec := json.NewDecoder(rf); dec.More(); {
		var rec trace.RawRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		rawRecs = append(rawRecs, rec)
	}
	if len(rawRecs) < len(obs) {
		t.Errorf("raw (%d) should be at least as large as observed (%d)", len(rawRecs), len(obs))
	}
}

func TestRunGeneratesJSONL(t *testing.T) {
	out := filepath.Join(t.TempDir(), "obs.jsonl")
	if err := run([]string{"-family", "torpig", "-bots", "3", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if obs := readObservedFile(t, out); len(obs) == 0 {
		t.Error("no observations written")
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFamily(t *testing.T) {
	if err := run([]string{"-family", "nope"}); err == nil {
		t.Error("unknown family should fail")
	}
}

func TestRunMultiServer(t *testing.T) {
	out := filepath.Join(t.TempDir(), "obs.jsonl")
	if err := run([]string{"-family", "srizbi", "-bots", "4", "-servers", "3", "-out", out}); err != nil {
		t.Fatal(err)
	}
	servers := readObservedFile(t, out).Servers()
	if len(servers) != 3 {
		t.Errorf("servers in trace = %v, want 3", servers)
	}
}
