package trace

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"testing"

	"botmeter/internal/sim"
)

// stableObserved and stableRaw are the oracle the sort kernel is held to:
// the comparison merge sort Observed.Sort and Raw.Sort ran before it.
func stableObserved(o Observed) {
	slices.SortStableFunc(o, func(a, b ObservedRecord) int { return cmp.Compare(a.T, b.T) })
}

func stableRaw(r Raw) {
	slices.SortStableFunc(r, func(a, b RawRecord) int { return cmp.Compare(a.T, b.T) })
}

// timeShapes draws n timestamps of a named arrangement. Most shapes repeat
// timestamps, so a record overtaking an earlier simultaneous one shows.
var timeShapes = map[string]func(n int, rng *sim.RNG) []sim.Time{
	"equal": func(n int, _ *sim.RNG) []sim.Time {
		return fill(n, func(int) sim.Time { return 42 })
	},
	"negative": func(n int, rng *sim.RNG) []sim.Time {
		return fill(n, func(int) sim.Time { return -sim.Time(rng.Int64N(int64(n/2+1))) - sim.Day })
	},
	"sorted": func(n int, _ *sim.RNG) []sim.Time {
		return fill(n, func(i int) sim.Time { return sim.Time(i / 3) })
	},
	"reversed": func(n int, _ *sim.RNG) []sim.Time {
		return fill(n, func(i int) sim.Time { return sim.Time((n - i) / 3) })
	},
	"one-descent": func(n int, rng *sim.RNG) []sim.Time {
		ts := fill(n, func(i int) sim.Time { return sim.Time(i / 2) })
		k := rng.IntN(n + 1)
		return append(ts[k:], ts[:k]...)
	},
	"shuffled": func(n int, rng *sim.RNG) []sim.Time {
		return fill(n, func(int) sim.Time { return sim.Time(rng.Int64N(int64(n/4+1))) * sim.Second })
	},
	"day-shuffled": func(n int, rng *sim.RNG) []sim.Time {
		return fill(n, func(int) sim.Time { return sim.Time(rng.Int64N(int64(sim.Day))) })
	},
	"runs": ascendingRuns,
	"disordered": func(n int, rng *sim.RNG) []sim.Time {
		return fill(n, func(i int) sim.Time {
			return sim.Day*sim.Time(i)/sim.Time(n) + sim.Time(rng.Int64N(int64(10*sim.Second))) - 5*sim.Second
		})
	},
	"streams-4":  func(n int, rng *sim.RNG) []sim.Time { return sortedStreams(n, 4, rng) },
	"streams-16": func(n int, rng *sim.RNG) []sim.Time { return sortedStreams(n, 16, rng) },
	// widest spans exactly the time bits a key has beside n's index bits;
	// too-wide one more, and extreme all of int64: both take the fallback.
	"widest":   func(n int, rng *sim.RNG) []sim.Time { return spanning(n, keySpan(n)-1, rng) },
	"too-wide": func(n int, rng *sim.RNG) []sim.Time { return spanning(n, keySpan(n), rng) },
	"extreme": func(n int, rng *sim.RNG) []sim.Time {
		return fill(n, func(i int) sim.Time {
			if i%2 == 0 {
				return math.MaxInt64 - sim.Time(rng.IntN(3))
			}
			return math.MinInt64 + sim.Time(rng.IntN(3))
		})
	},
}

func fill(n int, at func(i int) sim.Time) []sim.Time {
	ts := make([]sim.Time, n)
	for i := range ts {
		ts[i] = at(i)
	}
	return ts
}

// ascendingRuns is 500-record ascending runs, each from a random start in a
// day: many senders' bursts appended one after another.
func ascendingRuns(n int, rng *sim.RNG) []sim.Time {
	ts := make([]sim.Time, n)
	var t sim.Time
	for i := range ts {
		if i%500 == 0 {
			t = sim.Time(rng.Int64N(int64(sim.Day)))
		}
		t += sim.Time(rng.Int64N(int64(2 * sim.Second)))
		ts[i] = t
	}
	return ts
}

// sortedStreams concatenates k time-sorted streams over the same day, as
// several vantages' datasets appended to one file.
func sortedStreams(n, k int, rng *sim.RNG) []sim.Time {
	ts := fill(n, func(int) sim.Time { return sim.Time(rng.Int64N(int64(sim.Day))) / sim.Second * sim.Second })
	for lo := 0; lo < n; lo += (n + k - 1) / k {
		slices.Sort(ts[lo:min(lo+(n+k-1)/k, n)])
	}
	return ts
}

// keySpan is the least time span (max − min) that does not fit in a key
// beside n records' indices, capped at what an int64 difference can hold.
func keySpan(n int) uint64 {
	return 1 << min(64-bits.Len(uint(max(n-1, 1))), 63)
}

// spanning draws timestamps from a range whose ends lie span apart around
// zero; the first record is the range's top and the last its bottom.
func spanning(n int, span uint64, rng *sim.RNG) []sim.Time {
	lo := -sim.Time(span / 2)
	hi := lo + sim.Time(span)
	return fill(n, func(i int) sim.Time {
		switch i {
		case 0:
			return hi
		case n - 1:
			return lo
		}
		return lo + sim.Time(rng.Uint64()%span)
	})
}

// tagObserved builds records at the given times, each tagged with its
// input position in every field the sort must carry along.
func tagObserved(ts []sim.Time) Observed {
	o := make(Observed, len(ts))
	for i, t := range ts {
		o[i] = ObservedRecord{T: t, Server: "s" + strconv.Itoa(i%7), Domain: strconv.Itoa(i) + ".com", Pos: int32(i)}
	}
	return o
}

func tagRaw(ts []sim.Time) Raw {
	r := make(Raw, len(ts))
	for i, t := range ts {
		r[i] = RawRecord{T: t, Client: strconv.Itoa(i), Server: "s", Domain: "d.com", NX: i%2 == 0}
	}
	return r
}

// TestSortMatchesStableSort holds Observed.Sort and Raw.Sort to the stable
// comparison sort on every shape, from empty to 5 000 records, including
// spans at and past what a packed key holds.
func TestSortMatchesStableSort(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 7, 64, 500, 1000, 4097, 5000}
	for shape, gen := range timeShapes {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/%d", shape, n), func(t *testing.T) {
				ts := gen(n, sim.NewRNG(uint64(n)*31+uint64(len(shape))))
				o, wantO := tagObserved(ts), tagObserved(ts)
				o.Sort()
				stableObserved(wantO)
				if i := firstDiff(o, wantO); i >= 0 {
					t.Fatalf("Observed.Sort: record %d = %+v, want %+v", i, o[i], wantO[i])
				}
				r, wantR := tagRaw(ts), tagRaw(ts)
				r.Sort()
				stableRaw(wantR)
				if i := firstDiff(r, wantR); i >= 0 {
					t.Fatalf("Raw.Sort: record %d = %+v, want %+v", i, r[i], wantR[i])
				}
			})
		}
	}
}

func firstDiff[E comparable](got, want []E) int {
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// TestSortFallbackBoundary pins where the packed key stops: widest fits in
// one key, too-wide needs one bit more. Both must sort either way; this
// checks the generators span what their names say.
func TestSortFallbackBoundary(t *testing.T) {
	for _, n := range []int{2, 3, 1000, 5000} {
		idxBits := bits.Len(uint(n - 1))
		for shape, wantBits := range map[string]int{"widest": 64 - idxBits, "too-wide": 65 - idxBits} {
			ts := timeShapes[shape](n, sim.NewRNG(uint64(n)))
			span := uint64(slices.Max(ts)) - uint64(slices.Min(ts))
			if got := bits.Len64(span); got != wantBits {
				t.Errorf("%s at n=%d spans %d bits, want %d", shape, n, got, wantBits)
			}
		}
	}
}

// BenchmarkTraceSort times Observed.Sort ("radix") against the stable
// comparison sort it replaced ("reference") on four arrangements of a day's
// records: uniformly shuffled, 500-record ascending runs at random starts,
// locally disordered by ±5 s, and four sorted streams concatenated. Each
// iteration sorts a fresh copy; ns/record is the sort alone.
func BenchmarkTraceSort(b *testing.B) {
	sorts := []struct {
		name string
		sort func(Observed)
	}{
		{"reference", stableObserved},
		{"radix", Observed.Sort},
	}
	shapes := []struct{ name, gen string }{
		{"shuffled", "day-shuffled"}, {"runs", "runs"}, {"disordered", "disordered"}, {"streams", "streams-4"},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			for _, n := range []int{100_000, 1_000_000} {
				b.Run(strconv.Itoa(n), func(b *testing.B) {
					in := tagObserved(timeShapes[shape.gen](n, sim.NewRNG(2016)))
					work := make(Observed, n)
					for _, s := range sorts {
						b.Run(s.name, func(b *testing.B) {
							for i := 0; i < b.N; i++ {
								b.StopTimer()
								copy(work, in)
								b.StartTimer()
								s.sort(work)
							}
							b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
						})
					}
				})
			}
		})
	}
}
