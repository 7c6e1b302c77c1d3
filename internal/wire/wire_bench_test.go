package wire

import (
	"testing"
	"time"
)

func benchPacket() *QUICPacket {
	return &QUICPacket{
		ConnID:       1,
		PacketNumber: 42,
		Frames: []Frame{
			&AckFrame{LargestAcked: 41, AckDelay: time.Millisecond,
				Ranges: []AckRange{{Smallest: 1, Largest: 41}}, ReceiveTimestamps: 2},
			&StreamFrame{StreamID: 3, Offset: 4096, Length: 1200},
		},
	}
}

func BenchmarkQUICPacketDecode(b *testing.B) {
	buf := benchPacket().AppendTo(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeQUICPacket(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQUICPacketSize(b *testing.B) {
	// Size() is the hot-path substitute for encoding; it must stay
	// allocation-free.
	p := benchPacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Size()
	}
}
