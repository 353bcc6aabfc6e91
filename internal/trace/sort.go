package trace

import (
	"math/bits"

	"botmeter/internal/sim"
)

// sortByTime stably orders s by the timestamp t reads from each record and
// reports true, or leaves s as it is and reports false when s's time span
// and length do not fit in one 64-bit key together: a span of
// 2^(64 − idxBits) ms or more, about 557 years at 10^6 records. It is the
// kernel behind Raw.Sort and Observed.Sort.
//
// A pre-scan returns at once on sorted input. Otherwise one pass reads each
// record's timestamp into a key and takes the least and greatest, and each
// key becomes (T − least) << idxBits | index, where idxBits is what the
// largest index needs. An LSD radix sort orders the keys by their time bits
// only, and the index bits make its output exactly the stable order. The
// sorted keys' low bits are the permutation, applied to s in place by
// following its cycles, so every record moves at most once. Scratch is two
// uint64 per record and a digit histogram; nothing record-sized is
// allocated.
func sortByTime[E any](s []E, t func(*E) sim.Time) bool {
	first := 1
	for first < len(s) && t(&s[first-1]) <= t(&s[first]) {
		first++
	}
	if first >= len(s) {
		return true
	}
	keys := make([]uint64, len(s))
	least, most := t(&s[0]), t(&s[0])
	for i := range s {
		v := t(&s[i])
		keys[i] = uint64(v)
		least, most = min(least, v), max(most, v)
	}
	idxBits := bits.Len(uint(len(s) - 1))
	timeBits := bits.Len64(uint64(most) - uint64(least))
	if idxBits+timeBits > 64 {
		return false
	}
	for i, k := range keys {
		keys[i] = (k-uint64(least))<<idxBits | uint64(i)
	}
	keys = radixSort(keys, idxBits, idxBits+timeBits)
	permute(s, keys, 1<<idxBits-1)
	return true
}

// radixSort orders keys by their bits [lo, hi) with stable LSD passes,
// ping-ponging between keys and one buffer of its size, and returns
// whichever holds the result. The digit width follows len(keys): a
// histogram much larger than the input costs more to clear and scan than
// its saved pass earns.
func radixSort(keys []uint64, lo, hi int) []uint64 {
	buf := make([]uint64, len(keys))
	width := hi - lo
	digit := min(max(bits.Len(uint(len(keys)))-3, 4), maxDigitBits)
	passes := (width + digit - 1) / digit
	digit = (width + passes - 1) / passes
	buckets := 1 << digit
	mask := uint64(buckets - 1)
	counts := make([]int, passes*buckets)
	for _, k := range keys {
		k >>= lo
		for p := 0; p < passes; p++ {
			counts[p*buckets+int(k&mask)]++
			k >>= digit
		}
	}
	for p := 0; p < passes; p++ {
		c := counts[p*buckets : (p+1)*buckets]
		shift := lo + p*digit
		sum := 0
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, k := range keys {
			d := (k >> shift) & mask
			buf[c[d]] = k
			c[d]++
		}
		keys, buf = buf, keys
	}
	return keys
}

// maxDigitBits caps the radix digit at 2^14 buckets, 128 KiB of counters a
// pass, so a day of millisecond timestamps (27 bits) takes two passes. Caps
// from 11 to 16 bits read alike within noise on BenchmarkTraceSort.
const maxDigitBits = 14

// permute rearranges s so that position i holds the record that stood at
// keys[i]&mask, following each cycle of the permutation once. A placed
// position's key is overwritten with its own index, which marks it done.
func permute[E any](s []E, keys []uint64, mask uint64) {
	for i := range s {
		src := int(keys[i] & mask)
		if src == i {
			continue
		}
		held := s[i]
		j := i
		for src != i {
			s[j] = s[src]
			keys[j] = uint64(j)
			j, src = src, int(keys[src]&mask)
		}
		s[j] = held
		keys[j] = uint64(j)
	}
}
