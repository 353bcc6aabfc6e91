package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/dnswire"
	"botmeter/internal/matcher"
	"botmeter/internal/netx"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// The traced wire replay: the workload's own packets go through each public
// call in the order the daemons make them, one call at a time, so that a
// daemon's CPU per query can be set against the sum of its parts. What the
// sum leaves over (wire.unattributed_us) is the scheduler, netpoll and the
// code between the calls.

const (
	replayCalls   = 12      // layers timed; the replay's time is split evenly
	replaySample  = 4096    // names of the workload replayed
	replayMaxCall = 200_000 // calls per layer at most, whatever the time
)

// wireCallsPerQuery is how many times one query makes each call on its way
// through the daemons, per workload. matcher.* is not listed: the engine
// matches inside Observe, so stream.observe_ns already holds it.
var wireCallsPerQuery = map[string]map[string]int{
	// Resolver hit path only.
	"resolver-hit": {
		"netx.echo_ns": 1, "dnswire.decode_ns": 1, "symtab.lookup_hit_ns": 1,
		"dnssim.cache_lookup_id_ns": 1, "dnswire.encode_ns": 1,
	},
	// Resolver miss path (client socket, upstream socket, allocating decode
	// of the upstream answer) and the vantage behind it.
	"chain-miss": {
		"netx.echo_ns": 3, "dnswire.decode_ns": 2, "dnswire.decode_alloc_ns": 1,
		"symtab.intern_miss_ns": 2, "dnssim.cache_lookup_id_ns": 1, "dnssim.cache_store_id_ns": 1,
		"trace.append_observed_ns": 1, "stream.observe_ns": 1, "dnswire.encode_ns": 1,
	},
	// Vantage fast path.
	"border-tap": {
		"netx.echo_ns": 1, "dnswire.decode_ns": 1, "symtab.lookup_hit_ns": 1,
		"trace.append_observed_ns": 1, "stream.observe_ns": 1, "dnswire.encode_ns": 1,
	},
	// Vantage classic loop: allocating decode, no intern table.
	"border-tap-safe": {
		"netx.echo_ns": 1, "dnswire.decode_alloc_ns": 1,
		"trace.append_observed_ns": 1, "stream.observe_ns": 1, "dnswire.encode_ns": 1,
	},
}

// replayLayers times each layer's call for about budget each and returns
// nanoseconds per call by metric name. Allocations per call go to the log.
func replayLayers(ctx context.Context, e *env, q querySet, epoch int, budget time.Duration) (map[string]float64, error) {
	names := q.sample(replaySample)
	pkts := make([][]byte, len(names))
	for i, n := range names {
		var err error
		if pkts[i], err = dnswire.NewQuery(uint16(i), n).Encode(); err != nil {
			return nil, err
		}
	}
	spec, err := dga.Lookup(liveFamily)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	fmt.Fprintf(e.log, "%-28s %10s %10s\n", "replayed call", "ns/op", "allocs/op")

	// measure times op in batches until budget or replayMaxCall is used up;
	// prepare, when set, runs before each batch outside the timing.
	measure := func(name string, batch int, prepare func(base int), op func(i int)) {
		var ops int
		var busy time.Duration
		var m0, m1 runtime.MemStats
		var mallocs uint64
		for busy < budget && ops < replayMaxCall && ctx.Err() == nil {
			if prepare != nil {
				prepare(ops)
			}
			runtime.ReadMemStats(&m0)
			d, _ := e.tr.timed(name, func() error {
				for i := 0; i < batch; i++ {
					op(ops + i)
				}
				return nil
			})
			runtime.ReadMemStats(&m1)
			busy += d
			mallocs += m1.Mallocs - m0.Mallocs
			ops += batch
		}
		out[name] = float64(busy.Nanoseconds()) / float64(ops)
		fmt.Fprintf(e.log, "%-28s %10.1f %10.2f\n", name, out[name], float64(mallocs)/float64(ops))
	}
	const batch = 2000

	// netx: one read and one write on a ListenUDP socket with the datagram
	// already queued, which is the syscall floor under every query. The
	// client's side of the exchange happens between the timed batches.
	conns, _, err := netx.ListenUDP(ctx, "127.0.0.1:0", 1)
	if err != nil {
		return nil, err
	}
	server, ok := conns[0].(*net.UDPConn)
	if !ok {
		conns[0].Close()
		return nil, fmt.Errorf("netx.ListenUDP returned %T, want *net.UDPConn", conns[0])
	}
	defer server.Close()
	client, err := net.DialUDP("udp", nil, server.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return nil, err
	}
	defer client.Close()
	const echoBatch = 64 // small enough to sit in a default socket buffer
	var failed error
	rbuf, cbuf := make([]byte, 65535), make([]byte, 65535)
	measure("netx.echo_ns", echoBatch,
		func(base int) {
			for i := 0; i < echoBatch; i++ {
				if base > 0 {
					if _, err := client.Read(cbuf); err != nil {
						failed = err
					}
				}
				if _, err := client.Write(pkts[(base+i)%len(pkts)]); err != nil {
					failed = err
				}
			}
		},
		func(int) {
			n, from, err := server.ReadFromUDPAddrPort(rbuf)
			if err == nil {
				_, err = server.WriteToUDPAddrPort(rbuf[:n], from)
			}
			if err != nil {
				failed = err
			}
		})
	if failed != nil {
		return nil, fmt.Errorf("netx echo: %w", failed)
	}

	// dnswire.
	var arena dnswire.Arena
	arena.LowerASCII = true
	var msg dnswire.Message
	measure("dnswire.decode_ns", batch, nil, func(i int) {
		if err := dnswire.DecodeInto(pkts[i%len(pkts)], &msg, &arena); err != nil {
			failed = err
		}
	})
	measure("dnswire.decode_alloc_ns", batch, nil, func(i int) {
		if _, err := dnswire.Decode(pkts[i%len(pkts)]); err != nil {
			failed = err
		}
	})
	var resp dnswire.Message
	enc := make([]byte, 0, 512)
	measure("dnswire.encode_ns", batch, nil, func(i int) {
		// The daemons' NXDOMAIN answer to the question just decoded.
		resp.Header = dnswire.Header{ID: msg.Header.ID, QR: true, RD: msg.Header.RD, RA: true, AA: true, Rcode: dnswire.RcodeNXDomain}
		resp.Questions = msg.Questions
		var err error
		if enc, err = resp.AppendEncode(enc[:0]); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return nil, fmt.Errorf("dnswire replay: %w", failed)
	}

	// symtab: the hit the steady state pays, and the miss a new name pays
	// (lookup, clone out of the arena, intern), into a table that grows.
	tab := symtab.New()
	for _, n := range names {
		tab.Intern(n)
	}
	var id symtab.ID
	measure("symtab.lookup_hit_ns", batch, nil, func(i int) { id, _ = tab.Lookup(names[i%len(names)]) })
	fresh := make([]string, batch)
	measure("symtab.intern_miss_ns", batch,
		func(base int) {
			for i := range fresh {
				fresh[i] = fmt.Sprintf("n%08d.%s", base+i, names[i%len(names)])
			}
		},
		func(i int) {
			n := fresh[i%batch]
			if _, ok := tab.Lookup(n); !ok {
				id = tab.Intern(strings.Clone(n))
			}
		})
	_ = id

	// dnssim cache, ID-keyed as the resolver's workers use it.
	cache := dnssim.NewCache(24*sim.Hour, 2*sim.Hour)
	for i := range names {
		cache.StoreID(0, symtab.ID(i+1), true)
	}
	hits := 0
	measure("dnssim.cache_lookup_id_ns", batch, nil, func(i int) {
		if _, ok := cache.LookupID(1, symtab.ID(i%len(names)+1)); ok {
			hits++
		}
	})
	measure("dnssim.cache_store_id_ns", batch, nil, func(i int) { cache.StoreID(1, symtab.ID(len(names)+i+1), true) })

	// trace: the vantage's batched observed-dataset append.
	f, err := os.Create(filepath.Join(e.tmp, "replay-observed.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sw := trace.NewSafeWriter(f, trace.SafeWriterConfig{})
	now := sim.Time(time.Now().UnixMilli())
	measure("trace.append_observed_ns", batch, nil, func(i int) {
		if err := sw.AppendObserved(now, "127.0.0.1", names[i%len(names)]); err != nil {
			failed = err
		}
	})
	if err := errors.Join(failed, sw.Close()); err != nil {
		return nil, fmt.Errorf("trace replay: %w", err)
	}

	// stream: Observe as the vantage calls it. A batch ends when the shards
	// have taken in what was handed over, so the cost is the engine's, not
	// only the channel send's.
	eng, err := stream.New(stream.Config{Core: core.Config{Family: spec, Seed: e.seed}})
	if err != nil {
		return nil, err
	}
	defer eng.Kill()
	measure("stream.observe_ns", batch, nil, func(i int) {
		rec := trace.ObservedRecord{T: now + sim.Time(i/100), Server: "127.0.0.1", Domain: names[i%len(names)]}
		if err := eng.Observe(rec); err != nil {
			failed = err
		}
		if fed := i + 1; fed%batch == 0 {
			for eng.Stats().Ingested < uint64(fed) {
				runtime.Gosched()
			}
		}
	})
	if failed != nil {
		return nil, fmt.Errorf("stream replay: %w", failed)
	}

	// matcher: today's pool by interned ID and by string, half hits.
	pool := dga.NewPoolCache(spec.Pool, e.seed, symtab.New()).For(epoch)
	byID := matcher.NewIDMatcher(liveFamily, pool.IDs)
	byName := matcher.NewSet(liveFamily, pool.Domains)
	matched := 0
	measure("matcher.match_id_ns", batch, nil, func(i int) {
		id := pool.IDs[i%len(pool.IDs)]
		if i%2 == 1 {
			id += symtab.ID(len(pool.IDs))
		}
		if byID.MatchID(id) {
			matched++
		}
	})
	measure("matcher.match_string_ns", batch, nil, func(i int) {
		n := names[i%len(names)]
		if i%2 == 0 {
			n = pool.Domains[i%len(pool.Domains)]
		}
		if byName.Match(n) {
			matched++
		}
	})
	if hits == 0 || matched == 0 {
		return nil, fmt.Errorf("replay: %d cache hits and %d matches, want some of each", hits, matched)
	}
	return out, ctx.Err()
}
