// Package netx provides the multi-socket UDP ingestion substrate of the
// wire fast path (DESIGN.md §19): N listener sockets bound to the same
// address via SO_REUSEPORT, so the kernel shards incoming datagrams by
// flow hash across N independent reader goroutines — no accept mutex, no
// shared ring, each socket a private pipeline. On platforms (or kernels)
// where SO_REUSEPORT is unavailable the listen degrades gracefully to a
// single socket, and callers run the same worker code with one shard.
//
// The implementation stays stdlib-only: the socket option is applied
// through net.ListenConfig.Control with a raw syscall, not golang.org/x/sys.
package netx

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"syscall"
)

// SocketCount maps a -listeners or -sockets flag onto a socket count: an
// explicit count wins, 0 means one socket per scheduler thread, capped at 8
// (beyond that the kernel flow hash, not the socket count, is the limit, and
// each socket's own state costs more than the parallelism returns).
func SocketCount(n int) int {
	if n > 0 {
		return n
	}
	return min(runtime.GOMAXPROCS(0), 8)
}

// ListenUDP opens count UDP sockets bound to addr. When count > 1 the
// sockets are bound with SO_REUSEPORT so the kernel distributes datagrams
// across them by flow hash. The first socket resolves the address (so
// ":0" picks one ephemeral port shared by every subsequent socket).
//
// Fallback contract: if the platform rejects SO_REUSEPORT, ListenUDP
// returns a single plainly-bound socket and reuseport=false rather than an
// error — the caller's worker pool simply runs with one shard. Any other
// bind failure closes the sockets opened so far and returns the error.
func ListenUDP(ctx context.Context, addr string, count int) (conns []net.PacketConn, reuseport bool, err error) {
	if count < 1 {
		count = 1
	}
	if count == 1 || !reusePortSupported {
		c, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, false, err
		}
		return []net.PacketConn{c}, false, nil
	}
	lc := net.ListenConfig{Control: controlReusePort}
	first, err := lc.ListenPacket(ctx, "udp", addr)
	if err != nil {
		// The kernel refused the socket option (or the bind): degrade to the
		// single-socket slow shape instead of failing the daemon.
		c, perr := net.ListenPacket("udp", addr)
		if perr != nil {
			return nil, false, fmt.Errorf("netx: listen %s: %w", addr, perr)
		}
		return []net.PacketConn{c}, false, nil
	}
	conns = append(conns, first)
	// Subsequent sockets bind the RESOLVED address of the first, so an
	// ephemeral-port request lands every socket on the same port.
	resolved := first.LocalAddr().String()
	for len(conns) < count {
		c, err := lc.ListenPacket(ctx, "udp", resolved)
		if err != nil {
			closeAll(conns)
			return nil, false, fmt.Errorf("netx: listen %s (socket %d of %d): %w", resolved, len(conns)+1, count, err)
		}
		conns = append(conns, c)
	}
	return conns, true, nil
}

// closeAll closes every socket in conns (best effort).
func closeAll(conns []net.PacketConn) {
	for _, c := range conns {
		c.Close()
	}
}

// controlReusePort applies SO_REUSEPORT to the socket before bind.
func controlReusePort(network, address string, c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) { serr = setReusePort(fd) }); err != nil {
		return err
	}
	return serr
}
