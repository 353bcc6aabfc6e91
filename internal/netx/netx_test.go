package netx

import (
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSocketCount: an explicit count wins; 0 is one socket per CPU, 1 to 8.
func TestSocketCount(t *testing.T) {
	if got := SocketCount(3); got != 3 {
		t.Fatalf("explicit: %d, want 3", got)
	}
	if got := SocketCount(12); got != 12 {
		t.Fatalf("explicit past the cap: %d, want 12", got)
	}
	if got, want := SocketCount(0), min(runtime.GOMAXPROCS(0), 8); got != want || got < 1 {
		t.Fatalf("default: %d, want %d", got, want)
	}
}

func TestListenUDPSingle(t *testing.T) {
	conns, reuse, err := ListenUDP(context.Background(), "127.0.0.1:0", 1)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer closeAll(conns)
	if len(conns) != 1 {
		t.Fatalf("count=1 returned %d sockets", len(conns))
	}
	if reuse {
		t.Fatalf("count=1 must not claim reuseport")
	}
}

func TestListenUDPCountFloor(t *testing.T) {
	conns, _, err := ListenUDP(context.Background(), "127.0.0.1:0", 0)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer closeAll(conns)
	if len(conns) != 1 {
		t.Fatalf("count=0 returned %d sockets, want 1", len(conns))
	}
}

// TestListenUDPSharded binds four sockets to one ephemeral port and proves
// the kernel delivers every datagram exactly once across the group. The
// distribution itself is a kernel policy (flow-hash), so the test asserts
// conservation, and only asserts spread when reuseport was actually active.
func TestListenUDPSharded(t *testing.T) {
	const sockets = 4
	conns, reuse, err := ListenUDP(context.Background(), "127.0.0.1:0", sockets)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer closeAll(conns)
	if !reuse {
		t.Logf("SO_REUSEPORT unavailable; fallback returned %d socket(s)", len(conns))
		if len(conns) != 1 {
			t.Fatalf("fallback must return exactly one socket, got %d", len(conns))
		}
		return
	}
	if len(conns) != sockets {
		t.Fatalf("got %d sockets, want %d", len(conns), sockets)
	}
	addr := conns[0].LocalAddr().String()
	for i, c := range conns {
		if c.LocalAddr().String() != addr {
			t.Fatalf("socket %d bound to %s, want %s", i, c.LocalAddr(), addr)
		}
	}

	perSocket := make([]atomic.Int64, sockets)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c Conn) {
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				n, _, err := c.ReadFromUDPAddrPort(buf)
				if err != nil {
					return
				}
				if n > 0 {
					perSocket[i].Add(1)
				}
			}
		}(i, c)
	}

	// Many distinct source ports, so the flow hash has entropy to spread.
	const senders, perSender = 32, 8
	for s := 0; s < senders; s++ {
		src, err := net.Dial("udp", addr)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < perSender; p++ {
			if _, err := src.Write([]byte{byte(s), byte(p)}); err != nil {
				t.Fatal(err)
			}
		}
		src.Close()
	}

	want := int64(senders * perSender)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var total int64
		for i := range perSocket {
			total += perSocket[i].Load()
		}
		if total == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d datagrams before deadline", total, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	hit := 0
	for i := range perSocket {
		if perSocket[i].Load() > 0 {
			hit++
		}
	}
	// 32 distinct 4-tuples across 4 sockets: all landing on one socket
	// would mean the option did not take effect.
	if hit < 2 {
		counts := make([]int64, sockets)
		for i := range perSocket {
			counts[i] = perSocket[i].Load()
		}
		t.Fatalf("kernel did not shard: per-socket counts %v", counts)
	}
	closeAll(conns)
	wg.Wait()
}
