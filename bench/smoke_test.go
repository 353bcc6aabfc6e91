package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"botmeter/internal/dnswire"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestSmoke runs every workload at tiny size, untraced and traced, through
// the same entry point the driver uses, and requires a correct result line
// that carries exactly the declared metrics.
func TestSmoke(t *testing.T) {
	root := repoRoot(t)
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seconds", "1", "-short", "-root", root, "-trace", []string{"0", "1"}[trace]}
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not a result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d", w.name, trace, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s missing or in %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.name, m.Value)
				}
			}
		}
	}
	entries, err := os.ReadDir(filepath.Join(root, ".bench_build", "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("%d scratch directories left behind", len(entries))
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metric and
// workload tables of this package saying the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the catalogue %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the catalogue %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the harness %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// TestNeverSeenRoundTrip checks that the patched-in-place query packets
// decode to the name the driver will accept for that sequence number, and to
// no other.
func TestNeverSeenRoundTrip(t *testing.T) {
	pool, err := newRotation([]string{"a.example", "b.example"})
	if err != nil {
		t.Fatal(err)
	}
	u, err := newNeverSeen(pool, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, seq := range []uint32{0, 1, 15, 16, 17, 32, 33, 99_999_999} {
		msg, err := dnswire.Decode(u.packet(seq))
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		name := msg.Questions[0].Name
		if !u.matches(seq, name) {
			t.Errorf("seq %d asks %q, which matches() rejects", seq, name)
		}
		if u.matches(seq+1, name) {
			t.Errorf("%q is accepted for seq %d as well as %d", name, seq+1, seq)
		}
		if seen[name] {
			t.Errorf("seq %d repeats the name %q", seq, name)
		}
		seen[name] = true
	}
	if !seen["a.example"] || !seen["b.example"] {
		t.Errorf("sequence numbers 0 and %d should draw on the pool; saw %v", chainPoolEvery, seen)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5, 0.9: 4.6} {
		if got := quantile(v, q); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
