package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"botmeter/internal/sim"
)

// landscapeJSON is the stable machine-readable schema for pipelines that
// consume landscapes (SIEM ingestion, dashboards).
type landscapeJSON struct {
	Family         string               `json:"family"`
	Model          string               `json:"model"`
	Estimator      string               `json:"estimator"`
	WindowStartMS  int64                `json:"window_start_ms"`
	WindowEndMS    int64                `json:"window_end_ms"`
	Total          float64              `json:"total_estimated_population"`
	MatchedLookups int                  `json:"matched_lookups"`
	Ingest         *ingestStatsJSON     `json:"ingest,omitempty"`
	Servers        []serverEstimateJSON `json:"servers"`
}

type ingestStatsJSON struct {
	Ingested         uint64 `json:"ingested"`
	Matched          uint64 `json:"matched"`
	DroppedLate      uint64 `json:"dropped_late"`
	ReorderEvictions uint64 `json:"reorder_evictions"`
}

type serverEstimateJSON struct {
	Rank           int       `json:"rank"`
	Server         string    `json:"server"`
	Population     float64   `json:"estimated_population"`
	SecondOpinion  float64   `json:"second_opinion,omitempty"`
	MatchedLookups int       `json:"matched_lookups"`
	PerEpoch       []float64 `json:"per_epoch,omitempty"`
}

// WriteJSON serialises the landscape with a stable schema.
func (l *Landscape) WriteJSON(w io.Writer) error {
	out := landscapeJSON{
		Family:         l.Family,
		Model:          l.Model,
		Estimator:      l.Estimator,
		WindowStartMS:  int64(l.Window.Start),
		WindowEndMS:    int64(l.Window.End),
		Total:          l.Total,
		MatchedLookups: l.MatchedLookups,
	}
	if l.Ingest != nil {
		out.Ingest = &ingestStatsJSON{
			Ingested:         l.Ingest.Ingested,
			Matched:          l.Ingest.Matched,
			DroppedLate:      l.Ingest.DroppedLate,
			ReorderEvictions: l.Ingest.ReorderEvictions,
		}
	}
	for i, s := range l.Servers {
		out.Servers = append(out.Servers, serverEstimateJSON{
			Rank:           i + 1,
			Server:         s.Server,
			Population:     s.Population,
			SecondOpinion:  s.SecondOpinion,
			MatchedLookups: s.MatchedLookups,
			PerEpoch:       s.PerEpoch,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("core: encode landscape: %w", err)
	}
	return nil
}

// WriteCSV serialises a landscape as CSV for downstream tooling
// (dashboards, ticketing integrations).
func (l *Landscape) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"rank", "server", "estimated_population", "second_opinion",
		"matched_lookups", "family", "model", "estimator",
		"window_start_ms", "window_end_ms",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("core: write header: %w", err)
	}
	for i, s := range l.Servers {
		row := []string{
			strconv.Itoa(i + 1),
			s.Server,
			strconv.FormatFloat(s.Population, 'f', 2, 64),
			strconv.FormatFloat(s.SecondOpinion, 'f', 2, 64),
			strconv.Itoa(s.MatchedLookups),
			l.Family, l.Model, l.Estimator,
			strconv.FormatInt(int64(l.Window.Start), 10),
			strconv.FormatInt(int64(l.Window.End), 10),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("core: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// Trend tracks per-server population estimates across consecutive analysis
// windows — the longitudinal view an operations team keeps day over day.
type Trend struct {
	Family  string
	Windows []sim.Window
	// Series maps server → per-window estimates (aligned with Windows).
	Series map[string][]float64
}

// NewTrend starts an empty trend for a family.
func NewTrend(family string) *Trend {
	return &Trend{Family: family, Series: make(map[string][]float64)}
}

// Add appends one landscape's estimates. Servers absent from a landscape
// record a zero for that window.
func (t *Trend) Add(l *Landscape) {
	t.Windows = append(t.Windows, l.Window)
	n := len(t.Windows)
	for _, s := range l.Servers {
		series, ok := t.Series[s.Server]
		if !ok {
			series = make([]float64, n-1)
		}
		t.Series[s.Server] = append(series, s.Population)
	}
	// Pad servers missing from this landscape.
	for server, series := range t.Series {
		if len(series) < n {
			t.Series[server] = append(series, 0)
		}
	}
}

// Growth returns the relative change of a server's estimate between the
// first and last window (0 if undefined) — a triage signal for spreading
// infections.
func (t *Trend) Growth(server string) float64 {
	series, ok := t.Series[server]
	if !ok || len(series) < 2 || series[0] == 0 {
		return 0
	}
	return (series[len(series)-1] - series[0]) / series[0]
}

// Sparkline renders a server's series as a compact unicode bar chart.
func (t *Trend) Sparkline(server string) string {
	series, ok := t.Series[server]
	if !ok || len(series) == 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	max := 0.0
	for _, v := range series {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	out := make([]rune, len(series))
	for i, v := range series {
		idx := int(v / max * float64(len(bars)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(bars) {
			idx = len(bars) - 1
		}
		out[i] = bars[idx]
	}
	return string(out)
}
