package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"botmeter/internal/parallel"
)

func TestRunTable1(t *testing.T) {
	if err := run([]string{"-artifact", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig6aTiny(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-artifact", "fig6a", "-trials", "1", "-scale", "0.05",
		"-models", "AU", "-outdir", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6a.csv")); err != nil {
		t.Errorf("CSV not written: %v", err)
	}
}

func TestRunTable2Tiny(t *testing.T) {
	if err := run([]string{"-artifact", "table2", "-days", "2", "-scale", "0.05"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig7TinyWithChart(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-artifact", "fig7", "-days", "2", "-scale", "0.05",
		"-chart", "-outdir", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig7.csv")); err != nil {
		t.Errorf("CSV not written: %v", err)
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	if err := run([]string{"-artifact", "fig99"}); err == nil {
		t.Error("unknown artifact should fail")
	}
}

// TestBenchJSONKeepsUnknownKeys: -bench-json appends to a trajectory file
// other tools write too, so a record's keys that BenchRecord does not know
// must survive the append.
func TestBenchJSONKeepsUnknownKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	old := `[{"artifact":"resolver-hit","commit":"abc1234","variant":"name-keyed","bytes_per_name":41.5}]`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-artifact", "table1", "-bench-json", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1]["artifact"] != "table1" {
		t.Fatalf("want the old record and a table1 one, got %s", data)
	}
	for key, want := range map[string]any{"artifact": "resolver-hit", "commit": "abc1234", "variant": "name-keyed", "bytes_per_name": 41.5} {
		if got := recs[0][key]; got != want {
			t.Errorf("old record's %s = %v after the append, want %v", key, got, want)
		}
	}
}

// TestBenchJSONCanonicalWorkers is the regression for the redundant
// workers=0 vs workers=1 trajectory records: on a host where both resolve
// to one worker, back-to-back -bench-json emissions must leave ONE
// canonical record (keyed by resolved_workers), while a run with a
// genuinely different resolved worker count appends a new one.
func TestBenchJSONCanonicalWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	base := []string{"-artifact", "table1", "-bench-json", path}
	if err := run(append(base, "-workers", "1")); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-workers", "0", "-bench-note", "canonical")); err != nil {
		t.Fatal(err)
	}
	readRecords := func() []BenchRecord {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var recs []BenchRecord
		if err := json.Unmarshal(data, &recs); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	recs := readRecords()
	if runtime.NumCPU() == 1 || parallel.Workers(0) == 1 {
		if len(recs) != 1 {
			t.Fatalf("workers 0 and 1 both resolve to 1: want 1 canonical record, got %d", len(recs))
		}
	} else {
		// Multi-core host: -workers 0 resolves to >1 so the shapes differ
		// and both records must survive.
		if len(recs) != 2 {
			t.Fatalf("want 2 records for distinct resolved worker counts, got %d", len(recs))
		}
	}
	last := recs[len(recs)-1]
	if last.ResolvedW != parallel.Workers(0) {
		t.Fatalf("resolved_workers = %d, want %d", last.ResolvedW, parallel.Workers(0))
	}
	if last.Comment != "canonical" {
		t.Fatalf("comment = %q, want %q", last.Comment, "canonical")
	}
	// An explicit distinct resolved worker count always appends.
	if err := run(append(base, "-workers", "3")); err != nil {
		t.Fatal(err)
	}
	if got := readRecords(); len(got) != len(recs)+1 {
		t.Fatalf("distinct resolved workers should append: had %d, now %d", len(recs), len(got))
	}
}
