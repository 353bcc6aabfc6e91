package estimators

import (
	"fmt"
	"sort"
)

// This file defines the exported sufficient statistic of an epoch stream and
// its merge algebra (DESIGN.md §17–§18): the states the MB/MB-C, MP/NC and MT
// streams serialize are combinable, so N independently-streaming vantage
// engines can be folded into one landscape by internal/stream's MergeStates,
// which moves EpochStates around without looking inside them.
//
// The algebra every Merge obeys (enforced by TestMergeAlgebra*):
//
//   - Associative and commutative: Merge(a, Merge(b, c)) equals
//     Merge(Merge(a, b), c) equals any permutation. Each Merge computes a
//     CANONICAL function of the multiset union of its inputs' atoms —
//     (bucket, position) pairs for MB, activation clusters for MP/NC,
//     candidate entries for MT — so grouping and order cannot matter.
//   - Empty-state identity: merging with a zero state canonicalises the
//     other operand and changes nothing else. States exported by a real
//     stream are already canonical (sorted, deduplicated where the
//     semantics are set-like), so on exported states the identity is exact.
//   - Exactness: MB's state is the distinct (TTL-bucket, pool-position)
//     SET, so the merge of any partition of an epoch's records equals the
//     state of a single stream that saw them all — under ANY partition.
//     MP/NC collapse timestamps into clusters and MT's candidate creation
//     is order-sensitive, so their merges are exact only under
//     server-disjoint partitions (each forwarding server feeds exactly one
//     vantage — the paper's deployment shape), where the same (server,
//     epoch) cell never has two partial states to combine.
//   - Self-merge: MB is idempotent (set union). MP/NC/MT are multiset
//     unions and double their counts under self-merge; rejecting an
//     accidental re-merge of the same vantage snapshot is the engine
//     layer's job (stream.MergeStates' vantage identity check).
//
// Nothing process-local appears in any of these states: BernoulliState
// holds pool positions, a function of (family, seed, epoch), and TimingState
// the sorted domain names its positions stand for. Merging states from
// different processes therefore needs no translation.

// EpochState is what an EpochStream exports: exactly one of the three kinds
// of statistic, the one its estimator keeps — MT's candidates, MP/NC's
// activation clusters, MB/MB-C's pair set. The zero value is the empty state
// of any kind.
type EpochState struct {
	Timing    *TimingState
	Clusters  *ClusterStreamState
	Bernoulli *BernoulliState
}

// Merge returns the canonical union of two states of one kind, sharing no
// memory with either; merging with the zero state canonicalises the other
// operand. States of different kinds, or a state holding more than one, do
// not combine.
func (a EpochState) Merge(b EpochState) (EpochState, error) {
	kinds := 0
	out := EpochState{
		Timing:    mergeKind(a.Timing, b.Timing, &kinds),
		Clusters:  mergeKind(a.Clusters, b.Clusters, &kinds),
		Bernoulli: mergeKind(a.Bernoulli, b.Bernoulli, &kinds),
	}
	if kinds > 1 {
		return EpochState{}, fmt.Errorf("estimator states of %d kinds, want at most one", kinds)
	}
	return out, nil
}

// mergeKind merges one kind of statistic, counting it when either operand
// holds it; an operand that does not stands for the kind's empty state.
func mergeKind[T interface{ Merge(T) T }](a, b *T, kinds *int) *T {
	if a == nil && b == nil {
		return nil
	}
	*kinds++
	var x, y T
	if a != nil {
		x = *a
	}
	if b != nil {
		y = *b
	}
	v := x.Merge(y)
	return &v
}

// Merge returns the canonical union of two MB pair sets: the distinct
// (TTL-bucket, pool-position) pairs of both states, sorted and regrouped
// per bucket. Exact under any record partition and idempotent (a ∪ a = a).
// The result shares no memory with either input.
func (a BernoulliState) Merge(b BernoulliState) BernoulliState {
	type pair struct{ bucket, pos int }
	pairs := make([]pair, 0, pairCount(a)+pairCount(b))
	for _, st := range []BernoulliState{a, b} {
		for _, bk := range st.Buckets {
			for _, pos := range bk.Positions {
				pairs = append(pairs, pair{bk.Bucket, pos})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].bucket != pairs[j].bucket {
			return pairs[i].bucket < pairs[j].bucket
		}
		return pairs[i].pos < pairs[j].pos
	})
	out := BernoulliState{}
	for i := 0; i < len(pairs); i++ {
		if i > 0 && pairs[i] == pairs[i-1] {
			continue // set semantics: duplicates collapse
		}
		n := len(out.Buckets)
		if n == 0 || out.Buckets[n-1].Bucket != pairs[i].bucket {
			out.Buckets = append(out.Buckets, BernoulliBucket{Bucket: pairs[i].bucket})
			n++
		}
		out.Buckets[n-1].Positions = append(out.Buckets[n-1].Positions, pairs[i].pos)
	}
	return out
}

func pairCount(st BernoulliState) int {
	n := 0
	for _, bk := range st.Buckets {
		n += len(bk.Positions)
	}
	return n
}

// Merge returns the canonical union of two cluster states: the multiset of
// atomic activation clusters of both, sorted by (start, end, count). The
// greatest cluster becomes Cur, the rest Done — the shape restoreState and
// Equation 1 expect (clusters in time order).
//
// Clusters are deliberately NOT re-coalesced across states: threshold
// coalescing is not associative (with merge window 10, pairwise-merging
// clusters at t=0, 8, 12 yields (0..12) or {(0..8), (12)} depending on
// grouping), whereas the sorted multiset union is a canonical function of
// the inputs' atoms. Under server-disjoint vantage partitions no two
// inputs ever hold clusters for the same (server, epoch) cell, so the
// question never arises in an exact deployment; under overlap the merged
// state keeps every observed activation, erring toward over-counting
// visible activity rather than silently fusing distinct activations.
func (a ClusterStreamState) Merge(b ClusterStreamState) ClusterStreamState {
	clusters := make([]ClusterState, 0, clusterCount(a)+clusterCount(b))
	for _, st := range []ClusterStreamState{a, b} {
		clusters = append(clusters, st.Done...)
		if st.Cur != nil {
			clusters = append(clusters, *st.Cur)
		}
	}
	sort.Slice(clusters, func(i, j int) bool {
		if clusters[i].Start != clusters[j].Start {
			return clusters[i].Start < clusters[j].Start
		}
		if clusters[i].End != clusters[j].End {
			return clusters[i].End < clusters[j].End
		}
		return clusters[i].Count < clusters[j].Count
	})
	out := ClusterStreamState{}
	if n := len(clusters); n > 0 {
		cur := clusters[n-1]
		out.Cur = &cur
		if n > 1 {
			out.Done = append([]ClusterState(nil), clusters[:n-1]...)
		}
	}
	return out
}

func clusterCount(st ClusterStreamState) int {
	n := len(st.Done)
	if st.Cur != nil {
		n++
	}
	return n
}

// Merge returns the canonical union of two MT candidate states: expired
// counts sum, and the still-active candidates of both are combined sorted
// by (first-lookup time, then domain set lexicographically) with each
// candidate's domain set re-sorted. A real stream creates candidates in
// non-decreasing `first` order, so the canonical order preserves the
// expiry-is-a-prefix invariant Advance relies on; the domain-set
// tie-break pins a total order for byte-stable serialization.
func (a TimingState) Merge(b TimingState) TimingState {
	out := TimingState{Expired: a.Expired + b.Expired}
	if n := len(a.Active) + len(b.Active); n > 0 {
		out.Active = make([]TimingCandidate, 0, n)
	}
	for _, st := range []TimingState{a, b} {
		for _, cand := range st.Active {
			domains := append([]string(nil), cand.Domains...)
			sort.Strings(domains)
			out.Active = append(out.Active, TimingCandidate{First: cand.First, Domains: domains})
		}
	}
	sort.Slice(out.Active, func(i, j int) bool {
		ci, cj := out.Active[i], out.Active[j]
		if ci.First != cj.First {
			return ci.First < cj.First
		}
		for k := 0; k < len(ci.Domains) && k < len(cj.Domains); k++ {
			if ci.Domains[k] != cj.Domains[k] {
				return ci.Domains[k] < cj.Domains[k]
			}
		}
		return len(ci.Domains) < len(cj.Domains)
	})
	return out
}
