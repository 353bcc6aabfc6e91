// Package trace defines the two datasets of the paper's §V: the raw
// dataset of client-level DNS lookups ⟨timestamp, client, server, domain,
// rcode⟩ (ground truth, visible only inside the network) and the observable
// dataset of cache-filtered lookups ⟨timestamp, forwarding server, domain⟩
// (what the border vantage point — and hence BotMeter — sees). JSON lines
// are the one on-disk encoding of both, so traces can be generated, stored
// and analysed by separate tools; BIND query logs are read as an observable
// dataset too.
package trace

import (
	"slices"
	"sort"

	"botmeter/internal/sim"
	"botmeter/internal/symtab"
)

// RawRecord is one client-level DNS lookup with its resolution outcome.
type RawRecord struct {
	T      sim.Time `json:"t"`
	Client string   `json:"client"`
	Server string   `json:"server"`
	Domain string   `json:"domain"`
	NX     bool     `json:"nx"`
}

// ObservedRecord is one lookup forwarded by a local server to the border
// vantage point. Client identity is invisible at this level (paper §II-B).
type ObservedRecord struct {
	T      sim.Time `json:"t"`
	Server string   `json:"server"`
	Domain string   `json:"domain"`

	// ID is Domain's interned symtab ID in the table of the network that
	// emitted the record: a simulated border sets it on every record, a
	// trace reader or a wire tap leaves it symtab.None. The matcher is the
	// only reader: it resolves a record by ID when it has one and by name
	// otherwise (matcher.Attribution.Resolve). In-memory only.
	ID symtab.ID `json:"-"`
	// Pos is the pool position the matcher resolved the record to, within
	// the pool of the record's epoch (collision names sit past the pool's
	// end). Only matched records have one (the stream engine's attribution
	// pass sets −1 on the others); the estimators read it and never the
	// name or the ID. A position is a function of (family, seed, epoch),
	// so it needs no table. In-memory only.
	Pos int32 `json:"-"`
}

// Raw is an ordered raw dataset.
type Raw []RawRecord

// Observed is an ordered observable dataset.
type Observed []ObservedRecord

// Sort orders the dataset by timestamp (stable, preserving insertion order
// of simultaneous records). A stable sort's output is uniquely determined by
// the input, so the generic slices.SortStableFunc here produces the exact
// record order the earlier reflect-based sort.SliceStable did — just without
// reflect's per-swap overhead, which dominated multi-million-record trace
// normalisation.
func (r Raw) Sort() {
	slices.SortStableFunc(r, func(a, b RawRecord) int {
		switch {
		case a.T < b.T:
			return -1
		case a.T > b.T:
			return 1
		}
		return 0
	})
}

// Sort orders the dataset by timestamp (stable; see Raw.Sort on why the
// generic sort is order-identical to the reflect-based one it replaced).
func (o Observed) Sort() {
	slices.SortStableFunc(o, func(a, b ObservedRecord) int {
		switch {
		case a.T < b.T:
			return -1
		case a.T > b.T:
			return 1
		}
		return 0
	})
}

// IsSorted reports whether the dataset is in non-decreasing timestamp order
// — the precondition for the zero-copy WindowSorted.
func (o Observed) IsSorted() bool {
	for i := 1; i < len(o); i++ {
		if o[i].T < o[i-1].T {
			return false
		}
	}
	return true
}

// WindowSorted filters a KNOWN time-sorted dataset to the half-open
// interval w in O(log n): the interval's bounds are found by binary search
// and the result is a read-only subslice of o. Callers that window the same
// dataset many times (the per-day analysis loops window a season-long trace
// hundreds of times) establish sortedness once, with IsSorted or Sort, and
// then slice for free. Calling it on unsorted data returns an arbitrary
// subslice; callers own the precondition.
func (o Observed) WindowSorted(w sim.Window) Observed {
	lo := sort.Search(len(o), func(i int) bool { return o[i].T >= w.Start })
	hi := lo + sort.Search(len(o)-lo, func(i int) bool { return o[lo+i].T >= w.End })
	return o[lo:hi:hi]
}

// Servers returns the distinct forwarding servers, sorted.
func (o Observed) Servers() []string {
	set := make(map[string]struct{})
	for _, rec := range o {
		set[rec.Server] = struct{}{}
	}
	names := make([]string, 0, len(set))
	for s := range set {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}

// Domains returns the distinct domains in the dataset, sorted.
func (o Observed) Domains() []string {
	set := make(map[string]struct{})
	for _, rec := range o {
		set[rec.Domain] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Builder accumulates an Observed dataset in chunks that grow geometrically,
// from 1 Ki records doubling to a 64 Ki (~3.5 MiB) cap. Appending to one
// grown slice re-copies the whole prefix repeatedly (Go's large-slice growth
// factor makes cumulative allocation ~5× the final size), and presizing to
// an upper bound allocates and zeroes memory that filtered appends never
// use. Chunks allocate exactly once each and are never copied until Build
// flattens them once into an exact-size slice; the doubling keeps a small
// dataset — one simulated trial's border trace — from allocating and
// zeroing a full 64 Ki chunk, while a large one wastes at most one chunk's
// spare capacity. The zero value is ready to
// use.
type Builder struct {
	done  []Observed // filled chunks, in append order
	cur   Observed   // chunk being filled
	total int
}

// Builder chunk capacities: the first chunk, and the cap the doubling stops
// at.
const (
	builderFirstChunk = 1 << 10
	builderMaxChunk   = 1 << 16
)

// Append adds one record.
func (b *Builder) Append(rec ObservedRecord) {
	if len(b.cur) == cap(b.cur) {
		next := builderFirstChunk
		if c := cap(b.cur); c > 0 {
			b.done = append(b.done, b.cur)
			next = min(2*c, builderMaxChunk)
		}
		b.cur = make(Observed, 0, next)
	}
	b.cur = append(b.cur, rec)
	b.total++
}

// Len reports the number of records appended so far.
func (b *Builder) Len() int { return b.total }

// Build flattens the chunks into one contiguous exact-size dataset,
// preserving append order. The builder remains valid and keeps its records;
// Build may be called repeatedly (each call allocates a fresh slice).
func (b *Builder) Build() Observed {
	if b.total == 0 {
		return nil
	}
	if len(b.done) == 0 {
		// Single partially-filled chunk: hand it out directly. Appends keep
		// filling the spare capacity but never move records the caller can
		// see, and Builder users discard the builder after Build anyway.
		return b.cur
	}
	flat := make(Observed, 0, b.total)
	for _, c := range b.done {
		flat = append(flat, c...)
	}
	return append(flat, b.cur...)
}

// Truncate coarsens timestamps to the given granularity, modelling vantage
// points that log at second resolution (paper §V-B).
func (o Observed) Truncate(granularity sim.Time) Observed {
	out := make(Observed, len(o))
	for i, rec := range o {
		rec.T = rec.T.Truncate(granularity)
		out[i] = rec
	}
	return out
}
