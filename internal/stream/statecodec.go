package stream

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"botmeter/internal/estimators"
	"botmeter/internal/sim"
)

// This file is the checkpoint payload format (version 7, DESIGN.md §15) and
// the only place that knows its layout. One walk over EngineState's fields
// (coder.state and the methods under it) runs in three modes: measure the
// encoded size, append the encoding, or decode it — so the writer and the
// reader cannot drift apart field by field.
//
// Integers are uvarints, signed ones zig-zag varints; a float64 is its eight
// raw bytes (bit-exact); a bool is one byte, 0 or 1; a string is its length
// and its bytes; a list is its count and its elements. A list of strings is
// its count, every length, then every string's bytes back to back. An
// optional struct is a bool and, when true, the struct.
//
// The decoder trusts nothing the frame says about itself: SHA-256 is not
// keyed, so a hostile vantage can put a valid checksum on any payload. It
// never panics, rejects trailing bytes and bool bytes other than 0 and 1, and
// checks every count against what the remaining bytes could hold at the
// element's smallest encoding before it allocates — a frame cannot make its
// reader allocate more than a small multiple of the frame's own length. A
// list of servers, closed epochs or open epochs that is not strictly
// ascending — by name or epoch — is refused too, so every state a decode
// returns holds the sorted runs MergeStates folds.

type coderMode uint8

const (
	sizing coderMode = iota
	encoding
	decoding
)

// coder carries one pass over a state. Decoding reads numbers from data and
// cuts strings out of text, the same bytes converted to a string once, so
// names cost no allocation each.
type coder struct {
	mode coderMode
	size int    // sizing: bytes the encoding will take
	buf  []byte // encoding: output, appended to
	data []byte // decoding: the payload
	text string // decoding: string(data)
	off  int    // decoding: read position
	lens []int  // decoding: scratch for a string list's lengths
	err  error  // decoding: first failure; every later read is a no-op
}

func (c *coder) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// put takes the next bytes of the encoding: counted when sizing, appended
// when encoding.
func (c *coder) put(p []byte) {
	if c.mode == sizing {
		c.size += len(p)
	} else {
		c.buf = append(c.buf, p...)
	}
}

// take consumes the payload's next n bytes and returns where they start, or
// false — with the reason kept — when the payload ends first or a read
// failed before.
func (c *coder) take(n int) (at int, ok bool) {
	if c.err == nil && n > len(c.data)-c.off {
		c.fail("payload ends %d bytes into a %d-byte field at byte %d", len(c.data)-c.off, n, c.off)
	}
	if c.err != nil {
		return 0, false
	}
	at, c.off = c.off, c.off+n
	return at, true
}

func (c *coder) uvarint(v *uint64) {
	switch c.mode {
	case sizing:
		c.size += uvarintLen(*v)
		return
	case encoding:
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	if c.err != nil {
		return
	}
	x, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.fail("bad varint at payload byte %d", c.off)
		return
	}
	c.off += n
	*v = x
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varint zig-zags a signed integer into a uvarint. Only a decode writes
// through v: a state being encoded may be shared with other readers.
func (c *coder) varint(v *int64) {
	u := uint64(*v<<1) ^ uint64(*v>>63)
	c.uvarint(&u)
	if c.mode == decoding {
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

func (c *coder) int(v *int) {
	x := int64(*v)
	c.varint(&x)
	if c.mode == decoding {
		*v = int(x)
	}
}

func (c *coder) time(v *sim.Time) { c.varint((*int64)(v)) }

func (c *coder) bool(v *bool) {
	if c.mode != decoding {
		b := [1]byte{}
		if *v {
			b[0] = 1
		}
		c.put(b[:])
		return
	}
	if at, ok := c.take(1); ok {
		if c.data[at] > 1 {
			c.fail("bool byte %#x at payload byte %d", c.data[at], at)
		}
		*v = c.data[at] == 1
	}
}

func (c *coder) float(v *float64) {
	if c.mode != decoding {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(*v))
		c.put(tmp[:])
		return
	}
	if at, ok := c.take(8); ok {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(c.data[at:]))
	}
}

// count codes a list's length. Decoding, it refuses a count that the bytes
// left could not hold at min bytes an element, so the caller may allocate
// count elements without trusting the frame.
func (c *coder) count(n, min int) int {
	v := uint64(n)
	c.uvarint(&v)
	if c.mode != decoding {
		return n
	}
	if c.err == nil && v > uint64(len(c.data)-c.off)/uint64(min) {
		c.fail("count %d at payload byte %d exceeds the %d bytes left", v, c.off, len(c.data)-c.off)
	}
	if c.err != nil {
		return 0
	}
	return int(v)
}

// bytes codes a string's n bytes; both sides know n already. A decoded
// string is a piece of text, not a copy.
func (c *coder) bytes(s *string, n int) {
	switch c.mode {
	case sizing:
		c.size += n
	case encoding:
		c.buf = append(c.buf, *s...)
	case decoding:
		if at, ok := c.take(n); ok {
			*s = c.text[at : at+n]
		}
	}
}

func (c *coder) str(s *string) { c.bytes(s, c.count(len(*s), 1)) }

// strs codes a string list: count, all lengths, then all bytes, so a sorted
// name list decodes into one slice of substrings of text.
func (c *coder) strs(names *[]string) {
	n := c.count(len(*names), 1)
	if c.mode != decoding {
		for _, s := range *names {
			c.count(len(s), 1)
		}
		for i := range *names {
			c.bytes(&(*names)[i], len((*names)[i]))
		}
		return
	}
	*names = nil
	c.lens = c.lens[:0]
	for i := 0; i < n; i++ {
		c.lens = append(c.lens, c.count(0, 1))
	}
	if n == 0 || c.err != nil {
		return
	}
	out := make([]string, n)
	for i, l := range c.lens {
		c.bytes(&out[i], l)
	}
	*names = out
}

// list codes a slice: its count, then each element through elem. min is the
// element's smallest encoding in bytes (see count). A decoded empty list is
// nil, whatever the encoder held.
func list[T any](c *coder, s *[]T, min int, elem func(*coder, *T)) {
	n := c.count(len(*s), min)
	if c.mode == decoding {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// opt codes an optional struct: a presence bool, then the struct.
func opt[T any](c *coder, p **T, elem func(*coder, *T)) {
	present := *p != nil
	c.bool(&present)
	if c.mode == decoding {
		*p = nil
		if present && c.err == nil {
			*p = new(T)
		}
	}
	if *p != nil {
		elem(c, *p)
	}
}

// minSize returns the smallest encoding of a T: the zero value's, where every
// number, bool, count and string length takes one byte and a float eight.
func minSize[T any](elem func(*coder, *T)) int {
	var zero T
	c := coder{mode: sizing}
	elem(&c, &zero)
	return c.size
}

// The list elements' smallest encodings, taken from the walk itself so they
// follow it when a field comes or goes.
var (
	minShard     = minSize((*coder).shard)
	minServer    = minSize((*coder).server)
	minRecord    = minSize((*coder).record)
	minValues    = minSize((*coder).values)
	minCell      = minSize((*coder).cell)
	minState     = minSize((*coder).epochState)
	minCandidate = minSize((*coder).candidate)
	minCluster   = minSize((*coder).cluster)
	minBucket    = minSize((*coder).bucket)
)

func (c *coder) state(st *EngineState) {
	fp := &st.Fingerprint
	c.str(&fp.Family)
	c.str(&fp.Model)
	c.str(&fp.Estimators)
	c.uvarint(&fp.Seed)
	c.time(&fp.EpochLen)
	c.time(&fp.NegativeTTL)
	c.time(&fp.Granularity)
	c.bool(&fp.Detection)
	c.float(&fp.DetectMiss)
	c.int(&fp.DetectCollisions)
	c.uvarint(&fp.DetectSeed)
	c.int(&fp.Shards)
	c.time(&fp.ReorderWindow)
	c.int(&fp.MaxReorder)
	c.time(&fp.WindowStart)
	c.time(&fp.WindowEnd)
	c.uvarint(&st.Source.Records)
	c.str(&st.Source.Path)
	c.varint(&st.Source.Bytes)
	c.strs(&st.Vantages)
	list(c, &st.Shards, minShard, (*coder).shard)
}

func (c *coder) shard(sh *ShardState) {
	c.uvarint(&sh.Seq)
	c.time(&sh.Watermark)
	c.time(&sh.MinT)
	c.time(&sh.MaxT)
	c.bool(&sh.HasData)
	c.int(&sh.MaxEmittedEpoch)
	c.int(&sh.PeakRetained)
	c.uvarint(&sh.Stats.Ingested)
	c.uvarint(&sh.Stats.Matched)
	c.uvarint(&sh.Stats.Unmatched)
	c.uvarint(&sh.Stats.DroppedLate)
	c.uvarint(&sh.Stats.ReorderEvictions)
	c.uvarint(&sh.Stats.EpochsClosed)
	list(c, &sh.Buffer, minRecord, (*coder).record)
	list(c, &sh.Servers, minServer, (*coder).server)
	ascending(c, sh.Servers, serverName, "server")
}

func (c *coder) record(en *RecordEntry) {
	c.time(&en.T)
	c.uvarint(&en.Seq)
	c.str(&en.Server)
	c.str(&en.Domain)
}

func (c *coder) server(ss *ServerState) {
	c.str(&ss.Name)
	c.int(&ss.Matched)
	list(c, &ss.Closed, minValues, (*coder).values)
	ascending(c, ss.Closed, closedEpoch, "closed epoch")
	list(c, &ss.Open, minCell, (*coder).cell)
	ascending(c, ss.Open, openEpoch, "open epoch")
}

// ascending refuses, decoding, a run whose keys do not strictly ascend: the
// sorted runs MergeStates folds and a restore loads one by one.
func ascending[T any, K cmp.Ordered](c *coder, run []T, key func(*T) K, what string) {
	if c.mode != decoding {
		return
	}
	for i := 1; i < len(run) && c.err == nil; i++ {
		if key(&run[i]) <= key(&run[i-1]) {
			c.fail("%s %v (%d of %d, before payload byte %d) is not above the one before", what, key(&run[i]), i, len(run), c.off)
		}
	}
}

// values codes a closed epoch: its number, then one value per estimator of
// the set.
func (c *coder) values(ev *estimators.EpochValues) {
	c.int(&ev.Epoch)
	list(c, &ev.Values, 8, (*coder).float)
}

// cell codes an open cell: its epoch, then one statistic per estimator of
// the set.
func (c *coder) cell(cs *estimators.CellState) {
	c.int(&cs.Epoch)
	list(c, &cs.States, minState, (*coder).epochState)
}

func (c *coder) epochState(es *estimators.EpochState) {
	opt(c, &es.Timing, (*coder).timing)
	opt(c, &es.Clusters, (*coder).clusters)
	opt(c, &es.Bernoulli, (*coder).bernoulli)
}

func (c *coder) timing(ts *estimators.TimingState) {
	c.int(&ts.Expired)
	list(c, &ts.Active, minCandidate, (*coder).candidate)
}

func (c *coder) candidate(cand *estimators.TimingCandidate) {
	c.time(&cand.First)
	c.strs(&cand.Domains)
}

func (c *coder) clusters(cs *estimators.ClusterStreamState) {
	list(c, &cs.Done, minCluster, (*coder).cluster)
	opt(c, &cs.Cur, (*coder).cluster)
}

func (c *coder) cluster(cl *estimators.ClusterState) {
	c.time(&cl.Start)
	c.time(&cl.End)
	c.int(&cl.Count)
}

func (c *coder) bernoulli(bs *estimators.BernoulliState) {
	list(c, &bs.Buckets, minBucket, (*coder).bucket)
}

// bucket delta-codes the positions: ascending in every state an engine or a
// merge produces, so the deltas are small; the arithmetic wraps, so any
// sequence a frame holds round-trips.
func (c *coder) bucket(bk *estimators.BernoulliBucket) {
	c.int(&bk.Bucket)
	prev := 0
	list(c, &bk.Positions, 1, func(c *coder, pos *int) {
		delta := *pos - prev
		c.int(&delta)
		prev += delta
		if c.mode == decoding {
			*pos = prev
		}
	})
}

// stateSize returns the length of st's payload encoding.
func stateSize(st *EngineState) int {
	c := coder{mode: sizing}
	c.state(st)
	return c.size
}

// appendState appends st's payload encoding to buf.
func appendState(buf []byte, st *EngineState) []byte {
	c := coder{mode: encoding, buf: buf}
	c.state(st)
	return c.buf
}

// decodeState decodes one payload, all of it.
func decodeState(payload []byte) (*EngineState, error) {
	c := coder{mode: decoding, data: payload, text: string(payload)}
	st := new(EngineState)
	c.state(st)
	if c.err == nil && c.off != len(payload) {
		c.fail("%d trailing bytes after the state", len(payload)-c.off)
	}
	if c.err != nil {
		return nil, c.err
	}
	return st, nil
}
