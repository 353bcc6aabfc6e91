package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Families are emitted in sorted order
// with at most one HELP/TYPE header each; series within a family are sorted
// by label block, so the output is deterministic and golden-testable.
// A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	counters, gauges, histograms, help := r.snapshot()
	bw := bufio.NewWriter(w)

	lastFamily := ""
	header := func(name, typ string) {
		if name == lastFamily {
			return
		}
		lastFamily = name
		if h, ok := help[name]; ok {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, h)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
	}

	for _, c := range counters {
		header(c.name, "counter")
		fmt.Fprintf(bw, "%s %d\n", seriesName(c.name, c.labels), c.Value())
	}
	lastFamily = ""
	for _, g := range gauges {
		header(g.name, "gauge")
		fmt.Fprintf(bw, "%s %s\n", seriesName(g.name, g.labels), formatFloat(g.Value()))
	}
	lastFamily = ""
	for _, h := range histograms {
		header(h.name, "histogram")
		bounds, counts := h.Buckets()
		var cum uint64
		for i, ub := range bounds {
			cum += counts[i]
			fmt.Fprintf(bw, "%s %d\n", seriesNameExtra(h.name+"_bucket", h.labels, "le", formatBound(ub)), cum)
		}
		cum += counts[len(counts)-1]
		fmt.Fprintf(bw, "%s %d\n", seriesNameExtra(h.name+"_bucket", h.labels, "le", "+Inf"), cum)
		fmt.Fprintf(bw, "%s %s\n", seriesName(h.name+"_sum", h.labels), formatFloat(h.Sum()))
		fmt.Fprintf(bw, "%s %d\n", seriesName(h.name+"_count", h.labels), h.Count())
	}
	return bw.Flush()
}

// formatBound renders a bucket upper bound ("0.005", "1", "+Inf").
func formatBound(ub float64) string {
	if math.IsInf(ub, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(ub, 'g', -1, 64)
}
