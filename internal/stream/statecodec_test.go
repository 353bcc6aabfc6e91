package stream_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"botmeter/internal/estimators"
	"botmeter/internal/stream"
)

// payloadOf encodes st and strips the frame header.
func payloadOf(t *testing.T, st *stream.EngineState) []byte {
	t.Helper()
	frame, err := stream.EncodeCheckpoint(st)
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	return frame[frameHeader:]
}

// TestDecodeForgedCounts: SHA-256 is not keyed, so a hostile vantage can put
// a valid frame around any payload. One that claims 2⁴⁰ elements in a list —
// of any kind the state has — must be refused before anything is allocated
// on the claim's say-so.
func TestDecodeForgedCounts(t *testing.T) {
	// Each kind builds a state holding n elements of its list (and one of
	// every list around it). The first byte in which the n = 1 and n = 2
	// payloads differ is that list's count.
	cell := func(states ...estimators.EpochState) *stream.EngineState {
		return &stream.EngineState{Shards: []stream.ShardState{{
			Servers: []stream.ServerState{{Name: "s", Open: []estimators.CellState{{States: states}}}},
		}}}
	}
	server := func(ss stream.ServerState) *stream.EngineState {
		return &stream.EngineState{Shards: []stream.ShardState{{Servers: []stream.ServerState{ss}}}}
	}
	kinds := map[string]func(n int) *stream.EngineState{
		"vantages": func(n int) *stream.EngineState {
			return &stream.EngineState{Vantages: make([]string, n)}
		},
		"shards": func(n int) *stream.EngineState {
			return &stream.EngineState{Shards: make([]stream.ShardState, n)}
		},
		"buffer": func(n int) *stream.EngineState {
			return &stream.EngineState{Shards: []stream.ShardState{{Buffer: make([]stream.RecordEntry, n)}}}
		},
		"servers": func(n int) *stream.EngineState {
			return &stream.EngineState{Shards: []stream.ShardState{{Servers: make([]stream.ServerState, n)}}}
		},
		"closed": func(n int) *stream.EngineState {
			return server(stream.ServerState{Closed: make([]estimators.EpochValues, n)})
		},
		"closed-values": func(n int) *stream.EngineState {
			return server(stream.ServerState{Closed: []estimators.EpochValues{{Values: make([]float64, n)}}})
		},
		"open": func(n int) *stream.EngineState {
			return server(stream.ServerState{Open: make([]estimators.CellState, n)})
		},
		"cell-states": func(n int) *stream.EngineState {
			return cell(make([]estimators.EpochState, n)...)
		},
		"candidates": func(n int) *stream.EngineState {
			return cell(estimators.EpochState{Timing: &estimators.TimingState{Active: make([]estimators.TimingCandidate, n)}})
		},
		"candidate-domains": func(n int) *stream.EngineState {
			return cell(estimators.EpochState{}, estimators.EpochState{Timing: &estimators.TimingState{
				Active: []estimators.TimingCandidate{{Domains: make([]string, n)}},
			}})
		},
		"clusters": func(n int) *stream.EngineState {
			return cell(estimators.EpochState{Clusters: &estimators.ClusterStreamState{Done: make([]estimators.ClusterState, n)}})
		},
		"buckets": func(n int) *stream.EngineState {
			return cell(estimators.EpochState{Bernoulli: &estimators.BernoulliState{Buckets: make([]estimators.BernoulliBucket, n)}})
		},
		"positions": func(n int) *stream.EngineState {
			return cell(estimators.EpochState{Bernoulli: &estimators.BernoulliState{
				Buckets: []estimators.BernoulliBucket{{Positions: make([]int, n)}},
			}})
		},
	}
	for name, build := range kinds {
		t.Run(name, func(t *testing.T) {
			one, two := payloadOf(t, build(1)), payloadOf(t, build(2))
			at := 0
			for at < len(one) && one[at] == two[at] {
				at++
			}
			if at == len(one) || one[at] != 1 || two[at] != 2 {
				t.Fatalf("no count byte found (first difference at %d of %d)", at, len(one))
			}
			forged := binary.AppendUvarint(append([]byte(nil), one[:at]...), 1<<40)
			forged = append(forged, make([]byte, 1024-len(forged))...)
			frame := reframe(forged)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := stream.DecodeCheckpoint(frame)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("a %d-byte frame claiming 2^40 %s decoded: %+v", len(frame), name, st)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("refusing the frame allocated %d bytes, want under 1 MB (%v)", got, err)
			}
			// The same bytes with the honest count still decode: the refusal
			// above is the count's doing.
			if _, err := stream.DecodeCheckpoint(reframe(one)); err != nil {
				t.Fatalf("the unforged payload does not decode: %v", err)
			}
		})
	}
}

// TestDecodeRejectsMalformedPayload covers what the payload decoder checks
// beyond counts, each on a well-framed payload.
func TestDecodeRejectsMalformedPayload(t *testing.T) {
	st := &stream.EngineState{Shards: []stream.ShardState{{HasData: true, Seq: 1}}}
	good := payloadOf(t, st)
	if _, err := stream.DecodeCheckpoint(reframe(good)); err != nil {
		t.Fatalf("good payload refused: %v", err)
	}
	hasData := bytes.LastIndexByte(good, 1) // Seq is earlier in the shard
	servers := func(names ...string) []byte {
		sh := stream.ShardState{}
		for _, name := range names {
			sh.Servers = append(sh.Servers, stream.ServerState{Name: name})
		}
		return payloadOf(t, &stream.EngineState{Shards: []stream.ShardState{sh}})
	}
	epochs := func(closed, open []int) []byte {
		ss := stream.ServerState{Name: "s"}
		for _, ep := range closed {
			ss.Closed = append(ss.Closed, estimators.EpochValues{Epoch: ep})
		}
		for _, ep := range open {
			ss.Open = append(ss.Open, estimators.CellState{Epoch: ep})
		}
		return payloadOf(t, &stream.EngineState{Shards: []stream.ShardState{{Servers: []stream.ServerState{ss}}}})
	}
	if _, err := stream.DecodeCheckpoint(reframe(servers("a", "b", "ba"))); err != nil {
		t.Fatalf("ascending servers refused: %v", err)
	}
	if _, err := stream.DecodeCheckpoint(reframe(epochs([]int{-1, 0, 2}, []int{2, 3}))); err != nil {
		t.Fatalf("ascending epochs refused: %v", err)
	}
	cases := map[string][]byte{
		"empty":                 nil,
		"truncated":             good[:len(good)-1],
		"trailing-byte":         append(append([]byte(nil), good...), 0),
		"bool-byte-2":           append(append(append([]byte(nil), good[:hasData]...), 2), good[hasData+1:]...),
		"varint-too-big":        bytes.Repeat([]byte{0xFF}, 64),
		"servers-descend":       servers("a", "c", "b"),
		"server-repeated":       servers("a", "b", "b"),
		"closed-epochs-descend": epochs([]int{0, 2, 1}, nil),
		"open-epochs-descend":   epochs(nil, []int{3, 2}),
		"closed-epoch-repeated": epochs([]int{1, 1}, nil),
	}
	for name, payload := range cases {
		if st, err := stream.DecodeCheckpoint(reframe(payload)); err == nil {
			t.Errorf("%s: decoded to %+v", name, st)
		}
	}
}

// TestDecodeAllocsIndependentOfNames: names are cut out of one string made
// from the payload, so what a decode allocates follows the number of lists
// in a state, not the number of names in them.
func TestDecodeAllocsIndependentOfNames(t *testing.T) {
	frameWith := func(names int) []byte {
		st := &stream.EngineState{Shards: make([]stream.ShardState, 2)}
		for sh := range st.Shards {
			for sv := 0; sv < 8; sv++ {
				domains := make([]string, names)
				for i := range domains {
					domains[i] = fmt.Sprintf("name-%06d.example.com", i)
				}
				st.Shards[sh].Servers = append(st.Shards[sh].Servers, stream.ServerState{
					Name:    fmt.Sprintf("local-%d-%d", sh, sv),
					Matched: names,
					Open: []estimators.CellState{{States: []estimators.EpochState{{Timing: &estimators.TimingState{
						Active: []estimators.TimingCandidate{{Domains: domains}},
					}}}}},
				})
			}
		}
		frame, err := stream.EncodeCheckpoint(st)
		if err != nil {
			t.Fatalf("EncodeCheckpoint: %v", err)
		}
		return frame
	}
	allocs := func(frame []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := stream.DecodeCheckpoint(frame); err != nil {
				t.Fatalf("DecodeCheckpoint: %v", err)
			}
		})
	}
	small, large := allocs(frameWith(100)), allocs(frameWith(10_000))
	// The one part that grows is the scratch slice of name lengths, which
	// append regrows a dozen times on the way from 100 names to 10 000.
	if large > small+16 {
		t.Fatalf("decode allocates %.0f times at 100 names a server and %.0f at 10 000", small, large)
	}
}
