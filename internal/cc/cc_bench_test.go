package cc

import (
	"testing"
	"time"
)

func BenchmarkCubicAckPath(b *testing.B) {
	c := NewCubic(CubicConfig{MSS: testMSS, InitialCwndPackets: 100})
	b.ReportAllocs()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		idx := uint64(i + 1)
		c.OnPacketSent(now, idx, testMSS)
		c.OnAck(now+20*time.Millisecond, idx, testMSS, 20*time.Millisecond, 0)
		now += 100 * time.Microsecond
	}
}

// BenchmarkCCOnAck measures every registered algorithm's balanced
// send+ack hot path — the per-packet cost a simulated transfer pays.
// TestConformanceZeroAlloc holds the 0 allocs/op.
func BenchmarkCCOnAck(b *testing.B) {
	for _, name := range Algorithms() {
		b.Run(name, func(b *testing.B) {
			c := MustNew(name, Config{MSS: testMSS})
			b.ReportAllocs()
			now := time.Duration(0)
			for i := 0; i < b.N; i++ {
				idx := uint64(i + 1)
				c.OnPacketSent(now, idx, testMSS)
				c.OnAck(now+20*time.Millisecond, idx, testMSS, 20*time.Millisecond, testMSS)
				now += 100 * time.Microsecond
			}
		})
	}
}

// BenchmarkCCOnSend adds the CanSend/Window admission check the pacer
// consults before each packet (the ack keeps BBR-style delivery maps
// at constant size so the loop measures steady state, not map growth).
func BenchmarkCCOnSend(b *testing.B) {
	for _, name := range Algorithms() {
		b.Run(name, func(b *testing.B) {
			c := MustNew(name, Config{MSS: testMSS})
			b.ReportAllocs()
			now := time.Duration(0)
			for i := 0; i < b.N; i++ {
				idx := uint64(i + 1)
				c.OnPacketSent(now, idx, testMSS)
				_ = c.CanSend(testMSS)
				c.OnAck(now, idx, testMSS, 20*time.Millisecond, testMSS)
				now += 100 * time.Microsecond
			}
		})
	}
}

func BenchmarkBBRAckPath(b *testing.B) {
	c := newBBR(testMSS, nil)
	b.ReportAllocs()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		idx := uint64(i + 1)
		c.OnPacketSent(now, idx, testMSS)
		c.OnAck(now+20*time.Millisecond, idx, testMSS, 20*time.Millisecond, 0)
		now += 100 * time.Microsecond
	}
}
