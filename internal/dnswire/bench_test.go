package dnswire

import (
	"net"
	"testing"
)

// BenchmarkWireDecode measures the arena fast path against Decode, which pays
// for a fresh arena per packet, on the two packet shapes the daemons handle
// per query: the client query and the positive response. The fast variants must report
// 0 allocs/op (gated by TestDecodeIntoZeroAllocs and the CI bench smoke).
func BenchmarkWireDecode(b *testing.B) {
	query, _ := NewQuery(0x4242, "xk3jq9vmz27a1.pool-domain.example.com").Encode()
	resp, _ := NewResponse(NewQuery(7, "xk3jq9vmz27a1.pool-domain.example.com"), net.ParseIP("192.0.2.1"), 300).Encode()
	shapes := []struct {
		name string
		pkt  []byte
	}{
		{"query", query},
		{"response", resp},
	}
	for _, s := range shapes {
		b.Run(s.name+"/alloc", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(s.pkt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(s.name+"/arena", func(b *testing.B) {
			var arena Arena
			var msg Message
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := DecodeInto(s.pkt, &msg, &arena); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireEncode measures response encoding: the fresh-buffer Encode
// against AppendEncode into a reused worker buffer (0 allocs/op).
func BenchmarkWireEncode(b *testing.B) {
	msg := NewResponse(NewQuery(7, "xk3jq9vmz27a1.pool-domain.example.com"), net.ParseIP("192.0.2.1"), 300)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := msg.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, 512)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = msg.AppendEncode(buf[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
