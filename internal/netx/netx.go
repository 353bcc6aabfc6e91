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
	"net/netip"
	"runtime"
	"syscall"
)

// Conn is the datagram socket a daemon's worker serves: the *net.UDPConn
// ListenUDP opens, or that socket behind faults.PacketConn under -chaos.
// Both calls carry the peer as a netip.AddrPort, so neither allocates.
type Conn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	LocalAddr() net.Addr
	Close() error
}

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
func ListenUDP(ctx context.Context, addr string, count int) (conns []Conn, reuseport bool, err error) {
	var lc net.ListenConfig
	if count > 1 && reusePortSupported {
		lc.Control = controlReusePort
	} else {
		count = 1
	}
	for len(conns) < count {
		c, err := lc.ListenPacket(ctx, "udp", addr)
		if err != nil && len(conns) == 0 && lc.Control != nil {
			// The kernel refused the socket option (or the bind): degrade to
			// the single-socket shape instead of failing the daemon.
			lc.Control, count = nil, 1
			continue
		}
		if err != nil {
			closeAll(conns)
			return nil, false, fmt.Errorf("netx: listen %s (socket %d of %d): %w", addr, len(conns)+1, count, err)
		}
		conns = append(conns, c.(*net.UDPConn))
		// Every later socket binds the first one's RESOLVED address, so an
		// ephemeral-port request lands them all on the same port.
		addr = c.LocalAddr().String()
	}
	return conns, lc.Control != nil, nil
}

// closeAll closes every socket in conns (best effort).
func closeAll(conns []Conn) {
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
