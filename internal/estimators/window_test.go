package estimators

import (
	"fmt"
	"testing"

	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// walkWindow runs one estimator over recs the way core.Analyze runs a
// server's records: those outside w are dropped, the rest go through a Walk
// in time order, and every epoch w touches is read back with its mean.
func walkWindow(e Estimator, recs trace.Observed, w sim.Window, cfg Config) (perEpoch []float64, mean float64, err error) {
	if w.Len() <= 0 {
		return nil, 0, fmt.Errorf("empty window %v", w)
	}
	if cfg, err = cfg.Normalized(); err != nil {
		return nil, 0, err
	}
	walk := NewWalk([]Estimator{e}, cfg, nil)
	for _, rec := range timeOrdered(recs) {
		if w.Contains(rec.T) {
			walk.Observe(rec)
		}
	}
	first, last := int(w.Start/cfg.EpochLen), int((w.End-1)/cfg.EpochLen)
	walk.CloseThrough(last)
	perEpoch, mean = walk.Series(0, first, last)
	return perEpoch, mean, nil
}

// TestEstimateWindowEpochSlicing pins the walk's epoch-grid slicing: which
// epochs a window touches, how records are partitioned onto them, and how
// the window clips partial first/last epochs. The streaming engine's
// batch↔stream contract leans on exactly these boundary conventions (epochs
// are half-open, T = k·δe opens epoch k), so they are pinned here as a
// table.
func TestEstimateWindowEpochSlicing(t *testing.T) {
	cfg := defaultCfg(auSpec())
	obs := trace.Observed{
		{T: 0, Domain: "r0.com"},
		{T: 6 * sim.Hour, Domain: "r1.com"},
		{T: sim.Day - 1, Domain: "r2.com"},
		{T: sim.Day, Domain: "r3.com"},
		{T: sim.Day + 6*sim.Hour, Domain: "r4.com"},
		{T: 2*sim.Day - 1, Domain: "r5.com"},
		{T: 2 * sim.Day, Domain: "r6.com"},
	}
	cases := []struct {
		name       string
		w          sim.Window
		wantEpochs []int // epoch indices the window touches, in order
		wantCounts []int // record count per epoch
		wantErr    bool
	}{
		{
			name:       "aligned two epochs",
			w:          sim.Window{Start: 0, End: 2 * sim.Day},
			wantEpochs: []int{0, 1},
			wantCounts: []int{3, 3}, // r6 sits at the excluded End instant
		},
		{
			name:       "partial first epoch",
			w:          sim.Window{Start: 6 * sim.Hour, End: 2 * sim.Day},
			wantEpochs: []int{0, 1},
			wantCounts: []int{2, 3}, // r0 clipped; r1 at Start is included (half-open)
		},
		{
			name:       "partial last epoch",
			w:          sim.Window{Start: 0, End: sim.Day + 6*sim.Hour},
			wantEpochs: []int{0, 1},
			wantCounts: []int{3, 1}, // r4 at End is excluded; epoch 1 keeps only r3
		},
		{
			name:       "window inside one epoch",
			w:          sim.Window{Start: 6 * sim.Hour, End: 12 * sim.Hour},
			wantEpochs: []int{0},
			wantCounts: []int{1}, // r1 only
		},
		{
			name:       "offset start epoch indices",
			w:          sim.Window{Start: sim.Day, End: 3 * sim.Day},
			wantEpochs: []int{1, 2},
			wantCounts: []int{3, 1}, // r3..r5 in epoch 1; r6 opens epoch 2
		},
		{
			name:       "trailing empty epoch",
			w:          sim.Window{Start: 0, End: 4 * sim.Day},
			wantEpochs: []int{0, 1, 2, 3},
			wantCounts: []int{3, 3, 1, 0}, // an empty epoch counts in the mean, as 0
		},
		{
			name:    "zero-length window",
			w:       sim.Window{Start: sim.Day, End: sim.Day},
			wantErr: true,
		},
		{
			name:    "negative window",
			w:       sim.Window{Start: sim.Day, End: 0},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var gotEpochs []int // epochs opened: the non-empty ones
			recorder := estimatorFunc(func(o trace.Observed, ep int) float64 {
				gotEpochs = append(gotEpochs, ep)
				return float64(len(o))
			})
			perEpoch, avg, err := walkWindow(recorder, obs, tc.w, cfg)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want error, got avg %v", avg)
				}
				return
			}
			if err != nil {
				t.Fatalf("walkWindow: %v", err)
			}
			var wantOpened, gotCounts []int
			for i, c := range tc.wantCounts {
				if c > 0 {
					wantOpened = append(wantOpened, tc.wantEpochs[i])
				}
			}
			for _, v := range perEpoch {
				gotCounts = append(gotCounts, int(v))
			}
			if !equalInts(gotEpochs, wantOpened) {
				t.Errorf("epochs opened: %v, want %v", gotEpochs, wantOpened)
			}
			if !equalInts(gotCounts, tc.wantCounts) {
				t.Errorf("records per epoch: %v, want %v", gotCounts, tc.wantCounts)
			}
			var sum int
			for _, c := range tc.wantCounts {
				sum += c
			}
			want := float64(sum) / float64(len(tc.wantCounts))
			if avg != want {
				t.Errorf("average = %v, want %v", avg, want)
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
