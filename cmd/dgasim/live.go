package main

import (
	"fmt"
	"net"
	"time"

	"botmeter/internal/dga"
	"botmeter/internal/dnswire"
	"botmeter/internal/sim"
)

// liveRun drives a bot population against a REAL resolver over UDP: each
// bot draws its barrel from today's pool (epoch = current Unix day, the
// same convention cmd/botmeter applies to live observations) and queries
// until it gets a positive answer or exhausts θq. Pacing is compressed —
// set-based estimation doesn't need wall-clock gaps, and nobody wants to
// wait δi·θq for a demo.
//
// Together with cmd/vantage and cmd/resolver this exercises the paper's
// whole Figure 1 as processes:
//
//	vantage  -listen 127.0.0.1:5300 -observed obs.jsonl &
//	resolver -listen 127.0.0.1:5301 -upstream 127.0.0.1:5300 &
//	dgasim   -family newgoz -bots 32 -live 127.0.0.1:5301
//	botmeter -family newgoz -in obs.jsonl -format jsonl
func liveRun(spec dga.Spec, seed uint64, bots int, resolverAddr string, timeout time.Duration) error {
	epoch := int(time.Now().UnixMilli() / int64(sim.Day))
	pool := spec.Pool.PoolFor(seed, epoch)
	conn, err := net.Dial("udp", resolverAddr)
	if err != nil {
		return fmt.Errorf("dgasim: dialing resolver: %w", err)
	}
	defer conn.Close()

	buf := make([]byte, 65535)
	var (
		resp           dnswire.Message
		arena          dnswire.Arena
		sent, contacts int
	)
	for b := 0; b < bots; b++ {
		rng := sim.SplitFrom(seed, uint64(epoch)*31+uint64(b))
		barrel := spec.Barrel.Barrel(pool, spec.ThetaQ, rng)
		var id uint16
		for _, pos := range barrel {
			domain := pool.Domains[pos]
			id++
			wire, err := dnswire.NewQuery(id, domain).Encode()
			if err != nil {
				return err
			}
			if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
				return err
			}
			if _, err := conn.Write(wire); err != nil {
				return err
			}
			sent++
			n, err := conn.Read(buf)
			if err != nil {
				// Treat a lost/slow answer as NXD and move on, like a
				// real stub resolver under timeout.
				continue
			}
			if err := dnswire.DecodeInto(buf[:n], &resp, &arena); err != nil {
				continue
			}
			if resp.Header.Rcode == dnswire.RcodeNoError && len(resp.Answers) > 0 {
				contacts++
				break // rendezvous established
			}
		}
	}
	fmt.Printf("live: epoch %d, %d bots, %d queries sent, %d C2 contacts\n",
		epoch, bots, sent, contacts)
	return nil
}
