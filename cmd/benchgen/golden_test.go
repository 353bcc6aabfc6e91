package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"botmeter/internal/experiments"
)

// update rewrites the golden hashes. Regenerate with:
//
//	go test ./cmd/benchgen -run TestGoldenArtifacts -update
var update = flag.Bool("update", false, "rewrite testdata/golden.json with current artifact hashes")

// Golden parameters: small enough for CI, fixed forever. Changing any of
// these (or any code on the artifact path) legitimately changes the hashes
// — rerun with -update and review the diff of the rendered artifacts, not
// just the hashes.
const (
	goldenSeed       = 2016
	goldenScale      = 0.05
	goldenTrials     = 2
	goldenPopulation = 16
	goldenDays       = 4
)

// goldenFile is the checked-in artifact→SHA-256 map.
type goldenFile struct {
	Note   string            `json:"note"`
	Hashes map[string]string `json:"hashes"`
}

// renderArtifacts produces the text renderings of every pinned artifact at
// the golden parameters: Table I, the five Figure 6 panels, Figure 7,
// Table II and the four extension artifacts (missing observations, chaos,
// taxonomy grid, re-activation). Workers is left at the default
// deliberately: artifacts are required to be identical at any parallelism,
// so a scheduling-dependent result shows up here as a hash flake.
func renderArtifacts(t *testing.T) map[string]string {
	t.Helper()
	f6 := experiments.SweepConfig{
		Trials:     goldenTrials,
		Population: goldenPopulation,
		Seed:       goldenSeed,
		Scale:      goldenScale,
	}
	out := map[string]string{"table1": experiments.RenderTableI()}
	panels := map[string]func(experiments.SweepConfig) ([]experiments.SweepPoint, error){
		"fig6a": experiments.Figure6a,
		"fig6b": experiments.Figure6b,
		"fig6c": experiments.Figure6c,
		"fig6d": experiments.Figure6d,
		"fig6e": experiments.Figure6e,
	}
	for name, panel := range panels {
		pts, err := panel(f6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = experiments.RenderFig6(pts)
	}
	series, err := experiments.Figure7(experiments.Fig7Config{
		Days: goldenDays, Seed: goldenSeed, Scale: goldenScale,
	})
	if err != nil {
		t.Fatalf("fig7: %v", err)
	}
	out["fig7"] = experiments.RenderFig7(series)
	out["table2"] = experiments.RenderTableII(experiments.TableII(series))

	// The extension artifacts, as `benchgen -artifact X` runs them at the
	// golden flags (it does not forward -population to the taxonomy grid,
	// which therefore runs at its default N = 32).
	missing, err := experiments.MissingObservations(f6)
	if err != nil {
		t.Fatalf("missing: %v", err)
	}
	out["missing"] = experiments.RenderMissingObs(missing)
	chaos, err := experiments.ChaosSweep(f6)
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	out["chaos"] = experiments.RenderChaos(chaos)
	cells, err := experiments.TaxonomyGrid(experiments.SweepConfig{Trials: goldenTrials, Seed: goldenSeed})
	if err != nil {
		t.Fatalf("taxonomy: %v", err)
	}
	out["taxonomy"] = experiments.RenderTaxonomyGrid(cells)
	rows, err := experiments.Reactivation(experiments.ReactivationConfig{Days: goldenDays, Seed: goldenSeed})
	if err != nil {
		t.Fatalf("reactivation: %v", err)
	}
	out["reactivation"] = experiments.RenderReactivation(rows)
	return out
}

// TestGoldenArtifacts pins SHA-256 hashes of the rendered evaluation
// artifacts at fixed seeds. The experiment pipeline is deterministic end to
// end (seeded RNG splitting, deterministic parallel trial collection), so
// any hash drift is a behaviour change on the simulate→match→estimate
// path that must be either fixed or consciously re-pinned with -update.
func TestGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts are a long test")
	}
	rendered := renderArtifacts(t)
	hashes := make(map[string]string, len(rendered))
	for name, text := range rendered {
		sum := sha256.Sum256([]byte(text))
		hashes[name] = hex.EncodeToString(sum[:])
	}
	path := filepath.Join("testdata", "golden.json")
	if *update {
		gf := goldenFile{
			Note:   "SHA-256 of benchgen text artifacts at seed 2016, scale 0.05, trials 2, population 16, days 4. Regenerate: go test ./cmd/benchgen -run TestGoldenArtifacts -update",
			Hashes: hashes,
		}
		data, err := json.MarshalIndent(gf, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-pinned %d artifact hashes in %s", len(hashes), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (rerun with -update to create): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	names := make([]string, 0, len(hashes))
	for name := range hashes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wantHash, ok := want.Hashes[name]
		if !ok {
			t.Errorf("%s: missing from golden file (rerun with -update)", name)
			continue
		}
		if hashes[name] != wantHash {
			t.Errorf("%s: hash drift\n  pinned  %s\n  current %s\nartifact now renders as:\n%s",
				name, wantHash, hashes[name], rendered[name])
		}
	}
	for name := range want.Hashes {
		if _, ok := hashes[name]; !ok {
			t.Errorf("golden file pins unknown artifact %q", name)
		}
	}
}

// TestGoldenArtifactsStable renders the artifacts twice in-process and
// requires byte identity — the determinism premise behind hash pinning,
// checked without any filesystem state.
func TestGoldenArtifactsStable(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts are a long test")
	}
	a, b := renderArtifacts(t), renderArtifacts(t)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("%s: two renders differ", name)
		}
	}
}
