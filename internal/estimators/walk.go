package estimators

import (
	"fmt"
	"slices"
	"time"

	"botmeter/internal/matcher"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// Walk is the one path from a forwarding server's matched records to its
// per-epoch estimates, for every estimator of a set at once. Records go in
// in non-decreasing time order. Each open epoch is a cell holding one
// EpochStream per estimator; a closed cell leaves one final value per
// estimator. core.Analyze runs one walk per server over a window and a
// stream shard keeps one per server behind its reorder buffer, so a batch
// landscape and a streamed one are the same computation on the same
// records (DESIGN.md §4.4).
type Walk struct {
	set    []Estimator
	cfg    Config
	open   []*cell           // ascending epoch
	closed map[int][]float64 // closed epoch → one final value per estimator
	// stages, when non-nil, gets one "estimate:<Name>" observation per
	// estimator per closed cell.
	stages *obs.StageSet
}

// cell is one open epoch: a stream per estimator of the set.
type cell struct {
	epoch    int
	streams  []EpochStream
	expiring []Expiring
	// spent is each stream's wall time on the cell so far, when timed.
	spent []time.Duration
}

// EpochValues is a closed epoch's final estimates, one per estimator of a
// walk's set, in set order.
type EpochValues struct {
	Epoch  int
	Values []float64
}

// CellState is an open epoch's exported statistics, one per estimator of a
// walk's set, in set order.
type CellState struct {
	Epoch  int
	States []EpochState
}

// NewWalk starts a walk for an estimator set. cfg is normalised once by the
// caller (Config.Normalized) and shared by every walk. With stages, each
// closed cell files, per estimator, the wall time its stream spent opening,
// observing and estimating as "estimate:<Name>".
func NewWalk(set []Estimator, cfg Config, stages *obs.StageSet) *Walk {
	return &Walk{set: set, cfg: cfg, closed: make(map[int][]float64), stages: stages}
}

// Set returns the walk's estimators, in set order.
func (w *Walk) Set() []Estimator { return w.set }

// Observe feeds rec to every stream of its epoch's cell, opening the cell if
// the epoch has none. Records arrive in time order, so no earlier epoch can
// see another record: their cells are closed first, and Observe returns how
// many it closed.
func (w *Walk) Observe(rec trace.ObservedRecord) (closed int) {
	epoch := int(rec.T / w.cfg.EpochLen)
	if len(w.open) > 0 && w.open[0].epoch < epoch {
		closed = w.CloseThrough(epoch - 1)
	}
	c := w.cell(epoch)
	for i, s := range c.streams {
		if c.spent == nil {
			s.Observe(rec)
			continue
		}
		t0 := time.Now()
		s.Observe(rec)
		c.spent[i] += time.Since(t0)
	}
	return closed
}

// at returns the index epoch's cell has, or would take, among the open ones.
func (w *Walk) at(epoch int) (int, bool) {
	return slices.BinarySearchFunc(w.open, epoch, func(c *cell, ep int) int { return c.epoch - ep })
}

// cell returns epoch's open cell, opening it in place when there is none.
func (w *Walk) cell(epoch int) *cell {
	if n := len(w.open); n > 0 && w.open[n-1].epoch == epoch {
		return w.open[n-1]
	}
	i, ok := w.at(epoch)
	if ok {
		return w.open[i]
	}
	c := &cell{epoch: epoch, streams: make([]EpochStream, len(w.set))}
	if w.stages != nil {
		c.spent = make([]time.Duration, len(w.set))
	}
	for i, e := range w.set {
		t0 := time.Now()
		c.streams[i] = e.OpenEpoch(epoch, w.cfg)
		if c.spent != nil {
			c.spent[i] += time.Since(t0)
		}
		if x, ok := c.streams[i].(Expiring); ok {
			c.expiring = append(c.expiring, x)
		}
	}
	w.open = slices.Insert(w.open, i, c)
	return c
}

// CloseThrough closes every open cell of an epoch ≤ epoch: each stream
// reports its final estimate and is released. It returns how many cells it
// closed.
func (w *Walk) CloseThrough(epoch int) int {
	n := 0
	for ; n < len(w.open) && w.open[n].epoch <= epoch; n++ {
		c := w.open[n]
		values := make([]float64, len(c.streams))
		for i, s := range c.streams {
			t0 := time.Now()
			values[i] = s.Estimate()
			if r, ok := s.(Releasable); ok {
				r.Release()
			}
			if c.spent != nil {
				w.stages.Observe("estimate:"+w.set[i].Name(), c.spent[i]+time.Since(t0), 0)
			}
		}
		w.closed[c.epoch] = values
	}
	w.open = slices.Delete(w.open, 0, n)
	return n
}

// Open reports how many cells are open.
func (w *Walk) Open() int { return len(w.open) }

// Series is estimator i's figure for every epoch first…last — final once
// the epoch has closed, provisional while it is open, 0 when it saw no
// record — and their mean: the paper's Figure 6(b) reading ("average the
// estimates over the number of epochs").
func (w *Walk) Series(i, first, last int) (perEpoch []float64, mean float64) {
	if last < first {
		return nil, 0
	}
	perEpoch = make([]float64, 0, last-first+1)
	var total float64
	for ep := first; ep <= last; ep++ {
		var v float64
		if values, ok := w.closed[ep]; ok {
			v = values[i]
		} else if at, ok := w.at(ep); ok {
			v = w.open[at].streams[i].Estimate()
		}
		perEpoch = append(perEpoch, v)
		total += v
	}
	return perEpoch, total / float64(len(perEpoch))
}

// Advance implements Expiring for the whole walk: every open cell's streams
// that hold candidates expire what watermark retires.
func (w *Walk) Advance(watermark sim.Time) {
	for _, c := range w.open {
		for _, x := range c.expiring {
			x.Advance(watermark)
		}
	}
}

// NextExpiry implements Expiring for the whole walk: the earliest time any
// open cell has a candidate to expire.
func (w *Walk) NextExpiry() (due sim.Time, ok bool) {
	for _, c := range w.open {
		for _, x := range c.expiring {
			if t, has := x.NextExpiry(); has && (!ok || t < due) {
				due, ok = t, true
			}
		}
	}
	return due, ok
}

// Export snapshots the walk: the closed epochs' values and the open cells'
// statistics, both ascending by epoch and sharing nothing with the walk.
// names returns an epoch's matcher, through which pool positions leave as
// names.
func (w *Walk) Export(names func(epoch int) *matcher.Attribution) (closed []EpochValues, open []CellState) {
	for ep, values := range w.closed {
		closed = append(closed, EpochValues{Epoch: ep, Values: slices.Clone(values)})
	}
	slices.SortFunc(closed, func(a, b EpochValues) int { return a.Epoch - b.Epoch })
	for _, c := range w.open {
		cs := CellState{Epoch: c.epoch, States: make([]EpochState, len(c.streams))}
		for i, s := range c.streams {
			cs.States[i] = s.ExportState(names(c.epoch))
		}
		open = append(open, cs)
	}
	return closed, open
}

// Restore loads what Export produced into a fresh walk of the same set. An
// error means the state does not belong to this set or is damaged; the walk
// is then to be discarded.
func (w *Walk) Restore(closed []EpochValues, open []CellState, names func(epoch int) *matcher.Attribution) error {
	for _, ev := range closed {
		if len(ev.Values) != len(w.set) {
			return fmt.Errorf("epoch %d: %d closed values for %d estimators", ev.Epoch, len(ev.Values), len(w.set))
		}
		w.closed[ev.Epoch] = slices.Clone(ev.Values)
	}
	for _, cs := range open {
		if len(cs.States) != len(w.set) {
			return fmt.Errorf("epoch %d: %d cell states for %d estimators", cs.Epoch, len(cs.States), len(w.set))
		}
		c := w.cell(cs.Epoch)
		for i, s := range c.streams {
			if err := s.RestoreState(cs.States[i], names(cs.Epoch)); err != nil {
				return fmt.Errorf("epoch %d: %s: %w", cs.Epoch, w.set[i].Name(), err)
			}
		}
	}
	return nil
}
