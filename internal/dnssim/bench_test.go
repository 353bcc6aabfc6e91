package dnssim

import (
	"fmt"
	"testing"

	"botmeter/internal/sim"
)

func BenchmarkCacheLookupMiss(b *testing.B) {
	c := NewCache(sim.Day, 2*sim.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.LookupID(sim.Hour, 1)
	}
}

func BenchmarkClientQueryThroughHierarchy(b *testing.B) {
	n := NewNetwork(NetworkConfig{
		LocalServers: 8,
		MidTierFanIn: 4,
		PositiveTTL:  sim.Day,
		NegativeTTL:  2 * sim.Hour,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client := fmt.Sprintf("10.0.0.%d", i%200)
		domain := fmt.Sprintf("q%05d.com", i%5000)
		if _, err := n.ClientQuery(sim.Time(i), client, domain); err != nil {
			b.Fatal(err)
		}
	}
}
