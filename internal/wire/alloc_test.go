package wire

import (
	"testing"
	"time"
)

// quicDataPacket is a representative steady-state data packet: one
// full-size stream frame plus a piggybacked ack with two ranges.
func quicDataPacket() *QUICPacket {
	return &QUICPacket{
		ConnID:       42,
		PacketNumber: 1234,
		Frames: []Frame{
			&AckFrame{
				LargestAcked: 900,
				AckDelay:     40 * time.Microsecond,
				Ranges:       []AckRange{{Smallest: 800, Largest: 900}, {Smallest: 1, Largest: 700}},
			},
			&StreamFrame{StreamID: 5, Offset: 1 << 20, Length: 1280},
		},
	}
}

// tcpDataSegment is a representative steady-state data segment: MSS
// payload, piggybacked ack, timestamps, no SACK.
func tcpDataSegment() *TCPSegment {
	return &TCPSegment{
		ACK:    true,
		Seq:    1 << 21,
		AckNum: 4096,
		Window: 6 << 20,
		Length: TCPMSS,
		TSVal:  1000,
		TSEcr:  990,
	}
}

// TestQUICEncodeAppendZeroAlloc is the hot-path guard for the QUIC
// encoder: appending a steady-state data packet into a buffer with
// capacity (a pooled buffer after warmup) must not allocate.
func TestQUICEncodeAppendZeroAlloc(t *testing.T) {
	p := quicDataPacket()
	buf := make([]byte, 0, 2048)
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = p.AppendTo(buf[:0])
	}); allocs != 0 {
		t.Fatalf("QUIC AppendTo allocated %v times per run, want 0", allocs)
	}
	if len(buf) != p.Size() {
		t.Fatalf("encoded %d bytes, Size() = %d", len(buf), p.Size())
	}
}

// TestTCPEncodeAppendZeroAlloc is the same guard for the TCP encoder.
func TestTCPEncodeAppendZeroAlloc(t *testing.T) {
	s := tcpDataSegment()
	buf := make([]byte, 0, 2048)
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = s.AppendTo(buf[:0])
	}); allocs != 0 {
		t.Fatalf("TCP AppendTo allocated %v times per run, want 0", allocs)
	}
	if len(buf) != s.Size() {
		t.Fatalf("encoded %d bytes, Size() = %d", len(buf), s.Size())
	}
}

// TestAppendToMatchesEncode pins AppendTo at a non-empty, unaligned
// buffer offset to the wire image it produces into a fresh buffer (the TCP option
// padding must be relative to the segment start, not the buffer start).
func TestAppendToMatchesEncode(t *testing.T) {
	p := quicDataPacket()
	s := tcpDataSegment()
	s.SACK = []SACKBlock{{Start: 5000, End: 6000}}
	s.DSACK = &SACKBlock{Start: 4000, End: 4100}
	prefix := []byte{0xaa, 0xbb, 0xcc} // deliberately not 4-byte aligned
	for name, pair := range map[string][2][]byte{
		"quic": {p.AppendTo(nil), p.AppendTo(append([]byte{}, prefix...))[len(prefix):]},
		"tcp":  {s.AppendTo(nil), s.AppendTo(append([]byte{}, prefix...))[len(prefix):]},
	} {
		if string(pair[0]) != string(pair[1]) {
			t.Errorf("%s: AppendTo at offset differs from AppendTo(nil)", name)
		}
	}
}

// BenchmarkEncodeAppend measures steady-state append-encoding into a
// reused buffer for both wire formats (the ZeroAlloc tests above hold
// the 0 allocs/op).
func BenchmarkEncodeAppend(b *testing.B) {
	b.Run("quic", func(b *testing.B) {
		p := quicDataPacket()
		buf := make([]byte, 0, 2048)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = p.AppendTo(buf[:0])
		}
	})
	b.Run("tcp", func(b *testing.B) {
		s := tcpDataSegment()
		buf := make([]byte, 0, 2048)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = s.AppendTo(buf[:0])
		}
	})
}
