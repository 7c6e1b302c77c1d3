package wire

import (
	"encoding/binary"
	"fmt"
	"time"
)

// TCPHeaderBase is the fixed TCP header size (no options).
const TCPHeaderBase = 20

// IPOverhead is the IPv4 header overhead.
const IPOverhead = 20

// TCPMSS is the maximum segment payload used by the TCP stack, matching a
// 1500-byte MTU with IP+TCP+timestamp-option overhead.
const TCPMSS = 1448

// SACKBlock is one selective-acknowledgement block [Start, End) in
// sequence space.
type SACKBlock struct {
	Start, End uint64
}

// TCPSegment models a TCP segment with the options the paper's analysis
// depends on: SACK (loss visibility), DSACK (reordering detection feeding
// RR-TCP dupthresh adaptation), and timestamps.
//
// Sequence numbers are 64-bit in the model (no wraparound bookkeeping);
// the wire image still budgets 4 bytes as real TCP would.
type TCPSegment struct {
	SYN, ACK, FIN bool
	Seq           uint64 // sequence number of first payload byte
	AckNum        uint64 // next expected byte (cumulative ack)
	Window        uint64 // receive window in bytes (scaled on the wire)
	Length        int    // payload length (synthetic bytes)
	SACK          []SACKBlock
	// DSACK reports a duplicate segment the receiver already had; per RFC
	// 2883 it rides in the first SACK slot. Nil means none.
	DSACK *SACKBlock
	// TSVal/TSEcr are the timestamp option values (millisecond ticks, the
	// granularity the Linux stack uses — much coarser than QUIC's
	// microsecond ack delay, which is part of the paper's ACK-ambiguity
	// story).
	TSVal, TSEcr uint32
}

// maxSACKBlocks returns how many SACK blocks (including a DSACK) fit in
// the 40-byte option space alongside timestamps (and SYN options). Real
// stacks apply the same cap: 3 blocks with timestamps, 2 on a SYN.
func (s *TCPSegment) maxSACKBlocks() int {
	avail := 40 - 12 // minus timestamps option
	if s.SYN {
		avail -= 8 // MSS + window scale
	}
	return (avail - 4) / 8 // minus NOP NOP kind len
}

// numSACKBlocks returns how many blocks actually go on the wire: DSACK
// first (RFC 2883), then as many SACK blocks as fit.
func (s *TCPSegment) numSACKBlocks() int {
	n := len(s.SACK)
	if s.DSACK != nil {
		n++
	}
	if max := s.maxSACKBlocks(); n > max {
		n = max
	}
	return n
}

// optionBytes returns the size of the options section, padded to 4 bytes.
func (s *TCPSegment) optionBytes() int {
	n := 10 + 2 // timestamps option + 2 NOPs
	if nblocks := s.numSACKBlocks(); nblocks > 0 {
		n += 2 + 2 + 8*nblocks // NOP NOP + kind/len + blocks
	}
	if s.SYN {
		n += 4 + 4 // MSS option + window scale (+pad)
	}
	return (n + 3) &^ 3
}

// Size returns the serialized segment size (TCP header + options +
// payload), excluding IP overhead.
func (s *TCPSegment) Size() int { return TCPHeaderBase + s.optionBytes() + s.Length }

// WireSize includes IP overhead; charged to emulated links.
func (s *TCPSegment) WireSize() int { return s.Size() + IPOverhead }

// AppendTo appends the serialized segment to b and returns the extended
// slice; with a pooled buffer of sufficient capacity it does not
// allocate. len grows by exactly Size(). The model's 64-bit sequence
// numbers are truncated to 32 bits on the wire, as real TCP would carry
// them.
func (s *TCPSegment) AppendTo(b []byte) []byte {
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, 443) // src port (fixed; model has one flow per segment stream)
	b = binary.BigEndian.AppendUint16(b, 443)
	b = binary.BigEndian.AppendUint32(b, uint32(s.Seq))
	b = binary.BigEndian.AppendUint32(b, uint32(s.AckNum))
	flags := uint16(s.optionBytes()+TCPHeaderBase) / 4 << 12
	if s.SYN {
		flags |= 0x02
	}
	if s.ACK {
		flags |= 0x10
	}
	if s.FIN {
		flags |= 0x01
	}
	b = binary.BigEndian.AppendUint16(b, flags)
	// Window with scale factor 8 (wire carries >>8).
	w := s.Window >> 8
	if w > 0xffff {
		w = 0xffff
	}
	b = binary.BigEndian.AppendUint16(b, uint16(w))
	b = binary.BigEndian.AppendUint16(b, 0) // checksum placeholder
	b = binary.BigEndian.AppendUint16(b, 0) // urgent
	// Options: timestamps.
	b = append(b, 1, 1, 8, 10)
	b = binary.BigEndian.AppendUint32(b, s.TSVal)
	b = binary.BigEndian.AppendUint32(b, s.TSEcr)
	// SACK option (DSACK first, per RFC 2883). Blocks are written
	// directly rather than gathered into a slice first.
	if n := s.numSACKBlocks(); n > 0 {
		b = append(b, 1, 1, 5, byte(2+8*n))
		if s.DSACK != nil {
			b = binary.BigEndian.AppendUint32(b, uint32(s.DSACK.Start))
			b = binary.BigEndian.AppendUint32(b, uint32(s.DSACK.End))
			n--
		}
		for i := 0; i < n; i++ {
			b = binary.BigEndian.AppendUint32(b, uint32(s.SACK[i].Start))
			b = binary.BigEndian.AppendUint32(b, uint32(s.SACK[i].End))
		}
	}
	if s.SYN {
		b = append(b, 2, 4)
		b = binary.BigEndian.AppendUint16(b, TCPMSS)
		b = append(b, 3, 3, 8, 0) // window scale 8 + NOP pad
	}
	for (len(b)-start)%4 != 0 {
		b = append(b, 0)
	}
	return appendZeros(b, s.Length)
}

// DecodeTCPSegment parses the header-level fields of an encoded segment.
// 64-bit model fields are reconstructed only modulo 2^32; round-trip tests
// use small sequence values.
func DecodeTCPSegment(b []byte) (*TCPSegment, error) {
	if len(b) < TCPHeaderBase {
		return nil, ErrTruncated
	}
	s := &TCPSegment{
		Seq:    uint64(binary.BigEndian.Uint32(b[4:8])),
		AckNum: uint64(binary.BigEndian.Uint32(b[8:12])),
	}
	flags := binary.BigEndian.Uint16(b[12:14])
	dataOff := int(flags>>12) * 4
	s.SYN = flags&0x02 != 0
	s.ACK = flags&0x10 != 0
	s.FIN = flags&0x01 != 0
	s.Window = uint64(binary.BigEndian.Uint16(b[14:16])) << 8
	if dataOff < TCPHeaderBase {
		return nil, fmt.Errorf("wire: tcp data offset %d below minimum header", dataOff)
	}
	if len(b) < dataOff {
		return nil, ErrTruncated
	}
	opts := b[TCPHeaderBase:dataOff]
	sawSACKOpt := false
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end/pad
			opts = opts[1:]
		case 1: // NOP
			opts = opts[1:]
		case 8: // timestamps
			if len(opts) < 10 {
				return nil, ErrTruncated
			}
			s.TSVal = binary.BigEndian.Uint32(opts[2:6])
			s.TSEcr = binary.BigEndian.Uint32(opts[6:10])
			opts = opts[10:]
		case 5: // SACK
			if len(opts) < 2 || len(opts) < int(opts[1]) {
				return nil, ErrTruncated
			}
			// A length below 2 would not cover the kind/length bytes
			// themselves and, uncaught, would stall the option cursor.
			if opts[1] < 2 {
				return nil, fmt.Errorf("wire: tcp sack option length %d", opts[1])
			}
			n := (int(opts[1]) - 2) / 8
			body := opts[2:]
			for i := 0; i < n; i++ {
				blk := SACKBlock{
					Start: uint64(binary.BigEndian.Uint32(body[0:4])),
					End:   uint64(binary.BigEndian.Uint32(body[4:8])),
				}
				// A first block at/below the cumulative ack is a DSACK.
				if i == 0 && blk.End <= s.AckNum {
					d := blk
					s.DSACK = &d
				} else {
					s.SACK = append(s.SACK, blk)
				}
				body = body[8:]
			}
			opts = opts[int(opts[1]):]
			sawSACKOpt = true
		case 2: // MSS
			if len(opts) < 4 {
				return nil, ErrTruncated
			}
			opts = opts[4:]
		case 3: // window scale
			if len(opts) < 3 {
				return nil, ErrTruncated
			}
			opts = opts[3:]
		default:
			return nil, fmt.Errorf("wire: unknown tcp option %d", opts[0])
		}
	}
	_ = sawSACKOpt
	s.Length = len(b) - dataOff
	return s, nil
}

// TLSRecordOverhead approximates per-record TLS framing+MAC overhead that
// the TCP stack charges on application data.
const TLSRecordOverhead = 29

// TCPTimestampNow converts a simulation time to the millisecond timestamp
// tick real stacks carry in the TS option.
func TCPTimestampNow(now time.Duration) uint32 {
	return uint32(now / time.Millisecond)
}
