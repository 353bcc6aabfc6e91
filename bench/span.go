package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Parent is the ID of the enclosing span (0 = none).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. All timed calls of a
// workload are made from its one driving goroutine, so a stack of open spans
// is enough to find each span's parent. A nil *tracer still times the call
// but records nothing: that is the untraced run.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// timed runs fn and returns how long it took, recording a span when tracing.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name})
	t.open = append(t.open, id)
	start := time.Now()
	err := fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].StartNS = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].EndNS = end.Sub(t.t0).Nanoseconds()
	return end.Sub(start), err
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints, per span name, the call count, the total time and
// the self time (total minus the time covered by child spans).
func (t *tracer) printSelfTimes(w io.Writer) {
	type agg struct {
		n           int
		total, self int64
	}
	byName := map[string]*agg{}
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		d := s.EndNS - s.StartNS
		a.n++
		a.total += d
		a.self += d - child[s.ID]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].self > byName[names[j]].self })
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "calls", "total ms", "self ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f\n", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
