package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// Fuzz targets for the two decoders. The decoders face bytes produced by
// our own encoders in normal operation, but the chaos/fault work means
// truncated or corrupted buffers are now a first-class input; the
// invariant under fuzzing is "reject cleanly or round-trip":
//
//   - no panic, no hang, on any input;
//   - on accept, the decoded structure re-encodes to a buffer of the
//     same length that the decoder accepts again, and that second pass
//     is a byte-for-byte fixed point.

func quicSeedPackets() []*QUICPacket {
	return []*QUICPacket{
		{ConnID: 1, PacketNumber: 1, Frames: []Frame{
			&CryptoFrame{Kind: CryptoInchoateCHLO, BodyLen: 64},
		}},
		{ConnID: 7, PacketNumber: 42, Frames: []Frame{
			&StreamFrame{StreamID: 5, Offset: 1 << 20, Length: 1200, Fin: true},
		}},
		{ConnID: 7, PacketNumber: 43, Frames: []Frame{
			&AckFrame{
				LargestAcked: 99, AckDelay: 25 * time.Microsecond,
				Ranges:            []AckRange{{Smallest: 90, Largest: 99}, {Smallest: 1, Largest: 80}},
				ReceiveTimestamps: 2,
			},
			&StopWaitingFrame{LeastUnacked: 12},
		}},
		{ConnID: 9, PacketNumber: 3, Frames: []Frame{
			&WindowUpdateFrame{StreamID: 3, Offset: 1 << 24},
			&BlockedFrame{StreamID: 3},
			&PingFrame{},
			&ConnectionCloseFrame{ErrorCode: 25},
		}},
	}
}

func tcpSeedSegments() []*TCPSegment {
	return []*TCPSegment{
		{SYN: true, Window: 256 << 10},
		{SYN: true, ACK: true, AckNum: 1, Window: 256 << 10},
		{ACK: true, Seq: 1448, AckNum: 1, Length: 1448, Window: 1 << 20,
			TSVal: 120, TSEcr: 84},
		{ACK: true, AckNum: 2896, Window: 1 << 20,
			SACK:  []SACKBlock{{Start: 5792, End: 8688}, {Start: 11584, End: 13032}},
			DSACK: &SACKBlock{Start: 1448, End: 2896},
			TSVal: 240, TSEcr: 200},
		{FIN: true, ACK: true, Seq: 99999, AckNum: 4, Window: 64 << 10},
	}
}

func FuzzDecodeQUICPacket(f *testing.F) {
	for _, p := range quicSeedPackets() {
		f.Add(p.AppendTo(nil))
	}
	f.Add([]byte{0x43})                              // truncated header
	f.Add(make([]byte, 27))                          // header-sized zeroes (bad flags)
	f.Add(append([]byte{0x43}, make([]byte, 26)...)) // empty valid packet
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeQUICPacket(b)
		if err != nil {
			return
		}
		if p.Size() != len(b) {
			t.Fatalf("accepted %d bytes but Size() = %d", len(b), p.Size())
		}
		e1 := p.AppendTo(nil)
		if len(e1) != len(b) {
			t.Fatalf("re-encode length %d != input length %d", len(e1), len(b))
		}
		p2, err := DecodeQUICPacket(e1)
		if err != nil {
			t.Fatalf("re-encode of accepted packet rejected: %v", err)
		}
		if e2 := p2.AppendTo(nil); !bytes.Equal(e1, e2) {
			t.Fatalf("encode is not a fixed point:\n  e1=%x\n  e2=%x", e1, e2)
		}
	})
}

func FuzzDecodeTCPSegment(f *testing.F) {
	for _, s := range tcpSeedSegments() {
		f.Add(s.AppendTo(nil))
	}
	f.Add(make([]byte, TCPHeaderBase)) // zero header: data offset 0
	f.Add(tcpHeaderWithOptions(nil))
	f.Add(tcpHeaderWithOptions([]byte{5, 0, 0, 0})) // SACK option, length 0
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeTCPSegment(b)
		if err != nil {
			return
		}
		// The decoded structure need not re-encode to the input bytes
		// (the encoder always emits timestamps and caps SACK blocks),
		// but one encode pass must reach a fixed point.
		e1 := s.AppendTo(nil)
		s2, err := DecodeTCPSegment(e1)
		if err != nil {
			t.Fatalf("re-encode of accepted segment rejected: %v", err)
		}
		if s2.Size() != len(e1) {
			t.Fatalf("re-encoded %d bytes but Size() = %d", len(e1), s2.Size())
		}
		if e2 := s2.AppendTo(nil); !bytes.Equal(e1, e2) {
			t.Fatalf("encode is not a fixed point:\n  e1=%x\n  e2=%x", e1, e2)
		}
	})
}

// tcpHeaderWithOptions builds a minimal TCP header carrying the given raw
// option bytes (padded to 4), with the data offset field set to match.
func tcpHeaderWithOptions(opts []byte) []byte {
	for len(opts)%4 != 0 {
		opts = append(opts, 0)
	}
	b := make([]byte, TCPHeaderBase)
	flags := uint16(TCPHeaderBase+len(opts)) / 4 << 12
	binary.BigEndian.PutUint16(b[12:14], flags)
	return append(b, opts...)
}

// TestDecoderCrashRegressions pins down inputs that previously drove the
// TCP decoder into a slice panic or an infinite loop (found by the fuzz
// targets above); all must now be rejected with an error.
func TestDecoderCrashRegressions(t *testing.T) {
	cases := []struct {
		name string
		dec  func([]byte) error
		in   []byte
	}{
		{
			// flags word 0 => data offset 0 < 20: the option slice
			// b[20:0] used to panic.
			name: "tcp data offset below minimum header",
			dec:  decodeTCPErr,
			in:   make([]byte, TCPHeaderBase),
		},
		{
			// data offset 8 (non-zero but still under the fixed header).
			name: "tcp data offset 8",
			dec:  decodeTCPErr,
			in: func() []byte {
				b := make([]byte, TCPHeaderBase)
				binary.BigEndian.PutUint16(b[12:14], 2<<12)
				return b
			}(),
		},
		{
			// SACK option with length byte 0: the cursor never advanced,
			// looping forever.
			name: "tcp sack option length zero",
			dec:  decodeTCPErr,
			in:   tcpHeaderWithOptions([]byte{5, 0, 0, 0}),
		},
		{
			// Length byte 1 covers only the kind byte: same stall.
			name: "tcp sack option length one",
			dec:  decodeTCPErr,
			in:   tcpHeaderWithOptions([]byte{5, 1, 0, 0}),
		},
		{
			// Data offset pointing past the end of the buffer.
			name: "tcp data offset beyond buffer",
			dec:  decodeTCPErr,
			in: func() []byte {
				b := make([]byte, TCPHeaderBase)
				binary.BigEndian.PutUint16(b[12:14], 15<<12)
				return b
			}(),
		},
		{
			name: "quic truncated header",
			dec:  decodeQUICErr,
			in:   []byte{0x43, 0, 0},
		},
		{
			// Valid header, then a STREAM frame cut off mid-payload.
			name: "quic stream frame truncated payload",
			dec:  decodeQUICErr,
			in: func() []byte {
				p := &QUICPacket{ConnID: 1, PacketNumber: 1, Frames: []Frame{
					&StreamFrame{StreamID: 1, Length: 500},
				}}
				return p.AppendTo(nil)[:40]
			}(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.dec(tc.in); err == nil {
				t.Fatalf("decoder accepted malformed input %x", tc.in)
			}
		})
	}
}

func decodeTCPErr(b []byte) error  { _, err := DecodeTCPSegment(b); return err }
func decodeQUICErr(b []byte) error { _, err := DecodeQUICPacket(b); return err }
