package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"botmeter/internal/sim"
)

func sampleLandscape() *Landscape {
	return &Landscape{
		Family:    "newGoZ",
		Model:     "AR",
		Estimator: "MB",
		Window:    sim.Window{Start: 0, End: sim.Day},
		Servers: []ServerEstimate{
			{Server: "local-01", Population: 40.5, MatchedLookups: 1000},
			{Server: "local-00", Population: 7.2, MatchedLookups: 150},
		},
		Total:          47.7,
		MatchedLookups: 1150,
	}
}

func TestLandscapeWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLandscape().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "1,local-01,40.50") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], "newGoZ,AR,MB") {
		t.Errorf("row 2 missing metadata: %q", lines[2])
	}
}

func TestLandscapeWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLandscape().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Family  string  `json:"family"`
		Total   float64 `json:"total_estimated_population"`
		Servers []struct {
			Rank   int    `json:"rank"`
			Server string `json:"server"`
		} `json:"servers"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Family != "newGoZ" || decoded.Total != 47.7 {
		t.Errorf("decoded = %+v", decoded)
	}
	if len(decoded.Servers) != 2 || decoded.Servers[0].Rank != 1 || decoded.Servers[0].Server != "local-01" {
		t.Errorf("servers = %+v", decoded.Servers)
	}
}

func TestTrendAddAndGrowth(t *testing.T) {
	tr := NewTrend("newGoZ")
	l1 := sampleLandscape()
	tr.Add(l1)
	l2 := sampleLandscape()
	l2.Window = sim.Window{Start: sim.Day, End: 2 * sim.Day}
	l2.Servers[0].Population = 81 // local-01 doubles
	l2.Servers = l2.Servers[:1]   // local-00 disappears on day 2
	tr.Add(l2)

	if got := tr.Growth("local-01"); got != 1.0 {
		t.Errorf("growth = %v, want 1.0 (doubled)", got)
	}
	if got := tr.Growth("missing"); got != 0 {
		t.Errorf("growth of unknown server = %v", got)
	}
	// local-00's series padded with 0 for the second window.
	if s := tr.Series["local-00"]; len(s) != 2 || s[1] != 0 {
		t.Errorf("padded series = %v", s)
	}
}

func TestTrendLateJoinerBackfilled(t *testing.T) {
	tr := NewTrend("x")
	l1 := sampleLandscape()
	l1.Servers = l1.Servers[:1] // only local-01 on day 1
	tr.Add(l1)
	l2 := sampleLandscape() // both servers on day 2
	tr.Add(l2)
	if s := tr.Series["local-00"]; len(s) != 2 || s[0] != 0 {
		t.Errorf("late joiner series = %v, want leading 0", s)
	}
}

func TestTrendSparkline(t *testing.T) {
	tr := NewTrend("x")
	tr.Series["s"] = []float64{0, 5, 10}
	tr.Windows = make([]sim.Window, 3)
	line := tr.Sparkline("s")
	if len([]rune(line)) != 3 {
		t.Fatalf("sparkline = %q", line)
	}
	runes := []rune(line)
	if runes[0] >= runes[1] || runes[1] >= runes[2] {
		t.Errorf("sparkline not increasing: %q", line)
	}
	if tr.Sparkline("missing") != "" {
		t.Error("unknown server should give empty sparkline")
	}
	// All-zero series must not divide by zero.
	tr.Series["z"] = []float64{0, 0}
	if got := tr.Sparkline("z"); len([]rune(got)) != 2 {
		t.Errorf("zero series sparkline = %q", got)
	}
}
