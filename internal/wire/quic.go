// Package wire defines the binary wire formats for quiclab's two
// transports: a gQUIC-like packet/frame format and a TCP-like segment
// format.
//
// The simulator moves structured packets around (no byte shuffling on the
// hot path), but every type has a real AppendTo/Decode pair and a Size
// method that is tested to equal len(AppendTo(nil)), so the on-the-wire
// byte counts charged to the emulated links are honest. Stream payloads
// are represented by length only (synthetic payload), mirroring how the
// paper's experiments used content-free static objects.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Errors returned by decoders.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrBadFrame  = errors.New("wire: unknown frame type")
)

// QUICHeaderSize is the serialized size of a QUIC packet header:
// 1 flags + 8 connection ID + 6 packet number + 12 AEAD overhead.
// (gQUIC carried a 12-byte message authentication hash/GCM tag.)
const QUICHeaderSize = 1 + 8 + 6 + 12

// MaxQUICPayload is the maximum frame payload per QUIC packet. gQUIC used
// 1350-byte UDP payloads for IPv4; minus header overhead.
const MaxQUICPayload = 1350 - QUICHeaderSize

// UDPIPOverhead is the UDP+IPv4 header overhead added on the wire.
const UDPIPOverhead = 8 + 20

// FrameType discriminates QUIC frames.
type FrameType byte

// Frame type identifiers (not gQUIC's exact tag values, but the same
// inventory of frames the paper's analysis touches).
const (
	FrameStream FrameType = iota + 1
	FrameAck
	FrameWindowUpdate
	FrameBlocked
	FrameStopWaiting
	FrameCrypto
	FramePing
	FrameConnectionClose
)

func (t FrameType) String() string {
	switch t {
	case FrameStream:
		return "STREAM"
	case FrameAck:
		return "ACK"
	case FrameWindowUpdate:
		return "WINDOW_UPDATE"
	case FrameBlocked:
		return "BLOCKED"
	case FrameStopWaiting:
		return "STOP_WAITING"
	case FrameCrypto:
		return "CRYPTO"
	case FramePing:
		return "PING"
	case FrameConnectionClose:
		return "CONNECTION_CLOSE"
	}
	return fmt.Sprintf("FRAME(%d)", byte(t))
}

// Frame is a QUIC frame.
type Frame interface {
	Type() FrameType
	// Size is the serialized size in bytes; always equals len(AppendTo).
	Size() int
	// AppendTo appends the serialized frame.
	AppendTo(b []byte) []byte
}

// StreamFrame carries Length bytes of stream data at Offset. Payload bytes
// are synthetic: only the length travels through the simulator, but the
// wire image reserves space for them.
type StreamFrame struct {
	StreamID uint32
	Offset   uint64
	Length   uint32
	Fin      bool
}

// Type implements Frame.
func (f *StreamFrame) Type() FrameType { return FrameStream }

// Size implements Frame. Layout: type(1) fin(1) stream(4) offset(8)
// length(4) + payload.
func (f *StreamFrame) Size() int { return 1 + 1 + 4 + 8 + 4 + int(f.Length) }

// AppendTo implements Frame. Payload bytes are zero-filled.
func (f *StreamFrame) AppendTo(b []byte) []byte {
	b = append(b, byte(FrameStream), boolByte(f.Fin))
	b = binary.BigEndian.AppendUint32(b, f.StreamID)
	b = binary.BigEndian.AppendUint64(b, f.Offset)
	b = binary.BigEndian.AppendUint32(b, f.Length)
	return appendZeros(b, int(f.Length))
}

// AckRange is a contiguous range of acknowledged packet numbers
// [Smallest, Largest].
type AckRange struct {
	Smallest, Largest uint64
}

// AckFrame acknowledges received packets. Unlike TCP's cumulative ACK,
// it carries explicit ranges and receive timestamps — this is the
// mechanism the paper credits for eliminating ACK ambiguity and improving
// RTT/bandwidth estimation.
type AckFrame struct {
	LargestAcked uint64
	AckDelay     time.Duration // delay between receipt of largest and this ack
	Ranges       []AckRange    // descending, first contains LargestAcked
	// ReceiveTimestamps counts packet receive-time entries carried (each
	// 4 bytes relative time + 1 byte packet number delta).
	ReceiveTimestamps int
}

// Type implements Frame.
func (f *AckFrame) Type() FrameType { return FrameAck }

// Size implements Frame. Layout: type(1) largest(8) delay(4) nranges(1)
// + 16/range + nts(1) + 5/timestamp.
func (f *AckFrame) Size() int {
	return 1 + 8 + 4 + 1 + 16*len(f.Ranges) + 1 + 5*f.ReceiveTimestamps
}

// AppendTo implements Frame.
func (f *AckFrame) AppendTo(b []byte) []byte {
	b = append(b, byte(FrameAck))
	b = binary.BigEndian.AppendUint64(b, f.LargestAcked)
	b = binary.BigEndian.AppendUint32(b, uint32(f.AckDelay/time.Microsecond))
	if len(f.Ranges) > 255 {
		panic("wire: too many ack ranges")
	}
	b = append(b, byte(len(f.Ranges)))
	for _, r := range f.Ranges {
		b = binary.BigEndian.AppendUint64(b, r.Smallest)
		b = binary.BigEndian.AppendUint64(b, r.Largest)
	}
	b = append(b, byte(f.ReceiveTimestamps))
	return appendZeros(b, 5*f.ReceiveTimestamps)
}

// Acked reports whether packet number pn is covered by the frame.
func (f *AckFrame) Acked(pn uint64) bool {
	for _, r := range f.Ranges {
		if pn >= r.Smallest && pn <= r.Largest {
			return true
		}
	}
	return false
}

// WindowUpdateFrame raises the flow-control offset for a stream
// (StreamID != 0) or the connection (StreamID == 0).
type WindowUpdateFrame struct {
	StreamID uint32
	Offset   uint64
}

// Type implements Frame.
func (f *WindowUpdateFrame) Type() FrameType { return FrameWindowUpdate }

// Size implements Frame.
func (f *WindowUpdateFrame) Size() int { return 1 + 4 + 8 }

// AppendTo implements Frame.
func (f *WindowUpdateFrame) AppendTo(b []byte) []byte {
	b = append(b, byte(FrameWindowUpdate))
	b = binary.BigEndian.AppendUint32(b, f.StreamID)
	return binary.BigEndian.AppendUint64(b, f.Offset)
}

// BlockedFrame reports that the sender is flow-control blocked.
type BlockedFrame struct {
	StreamID uint32
}

// Type implements Frame.
func (f *BlockedFrame) Type() FrameType { return FrameBlocked }

// Size implements Frame.
func (f *BlockedFrame) Size() int { return 1 + 4 }

// AppendTo implements Frame.
func (f *BlockedFrame) AppendTo(b []byte) []byte {
	b = append(b, byte(FrameBlocked))
	return binary.BigEndian.AppendUint32(b, f.StreamID)
}

// StopWaitingFrame tells the peer not to expect acks below LeastUnacked.
type StopWaitingFrame struct {
	LeastUnacked uint64
}

// Type implements Frame.
func (f *StopWaitingFrame) Type() FrameType { return FrameStopWaiting }

// Size implements Frame.
func (f *StopWaitingFrame) Size() int { return 1 + 8 }

// AppendTo implements Frame.
func (f *StopWaitingFrame) AppendTo(b []byte) []byte {
	b = append(b, byte(FrameStopWaiting))
	return binary.BigEndian.AppendUint64(b, f.LeastUnacked)
}

// CryptoKind identifies handshake messages in the QUIC-Crypto exchange.
type CryptoKind byte

// Handshake message kinds. The sequencing (inchoate CHLO -> REJ with
// server config -> full CHLO [0-RTT possible] -> SHLO) is what gives QUIC
// its 1-RTT fresh / 0-RTT repeat connection establishment.
const (
	CryptoInchoateCHLO CryptoKind = iota + 1
	CryptoREJ
	CryptoFullCHLO
	CryptoSHLO
)

func (k CryptoKind) String() string {
	switch k {
	case CryptoInchoateCHLO:
		return "InchoateCHLO"
	case CryptoREJ:
		return "REJ"
	case CryptoFullCHLO:
		return "FullCHLO"
	case CryptoSHLO:
		return "SHLO"
	}
	return fmt.Sprintf("CryptoKind(%d)", byte(k))
}

// CryptoFrame carries a handshake message of BodyLen synthetic bytes.
// Resumable on a REJ indicates the server config may be cached for 0-RTT
// (false for the paper's unoptimised QUIC proxy, §5.5). StreamWindow and
// ConnWindow are the sender's advertised flow-control windows (gQUIC
// exchanged these as CHLO/SHLO tag values — the parameters the paper's
// calibration extracted from Google's servers, §4.1).
type CryptoFrame struct {
	Kind         CryptoKind
	BodyLen      uint32
	Resumable    bool
	StreamWindow uint64
	ConnWindow   uint64
}

// Type implements Frame.
func (f *CryptoFrame) Type() FrameType { return FrameCrypto }

// Size implements Frame.
func (f *CryptoFrame) Size() int { return 1 + 1 + 1 + 4 + 8 + 8 + int(f.BodyLen) }

// AppendTo implements Frame.
func (f *CryptoFrame) AppendTo(b []byte) []byte {
	b = append(b, byte(FrameCrypto), byte(f.Kind), boolByte(f.Resumable))
	b = binary.BigEndian.AppendUint32(b, f.BodyLen)
	b = binary.BigEndian.AppendUint64(b, f.StreamWindow)
	b = binary.BigEndian.AppendUint64(b, f.ConnWindow)
	return appendZeros(b, int(f.BodyLen))
}

// PingFrame keeps a connection alive (also used as TLP probe filler when
// no data is outstanding).
type PingFrame struct{}

// Type implements Frame.
func (f *PingFrame) Type() FrameType { return FramePing }

// Size implements Frame.
func (f *PingFrame) Size() int { return 1 }

// AppendTo implements Frame.
func (f *PingFrame) AppendTo(b []byte) []byte { return append(b, byte(FramePing)) }

// ConnectionCloseFrame terminates a connection.
type ConnectionCloseFrame struct {
	ErrorCode uint32
}

// Type implements Frame.
func (f *ConnectionCloseFrame) Type() FrameType { return FrameConnectionClose }

// Size implements Frame.
func (f *ConnectionCloseFrame) Size() int { return 1 + 4 }

// AppendTo implements Frame.
func (f *ConnectionCloseFrame) AppendTo(b []byte) []byte {
	b = append(b, byte(FrameConnectionClose))
	return binary.BigEndian.AppendUint32(b, f.ErrorCode)
}

// QUICPacket is one QUIC packet: header plus frames.
type QUICPacket struct {
	ConnID       uint64
	PacketNumber uint64
	Frames       []Frame
}

// Size returns the serialized packet size excluding UDP/IP overhead.
func (p *QUICPacket) Size() int {
	n := QUICHeaderSize
	for _, f := range p.Frames {
		n += f.Size()
	}
	return n
}

// WireSize returns the on-the-wire size including UDP/IP overhead; this is
// what gets charged to emulated links.
func (p *QUICPacket) WireSize() int { return p.Size() + UDPIPOverhead }

// AppendTo appends the serialized packet to b and returns the extended
// slice; with a pooled buffer of sufficient capacity it does not
// allocate. len grows by exactly Size().
func (p *QUICPacket) AppendTo(b []byte) []byte {
	return AppendQUICPacket(b, p.ConnID, p.PacketNumber, p.Frames)
}

// AppendQUICPacket appends a serialized packet built from its parts,
// letting callers with their own packet bookkeeping (the QUIC transport)
// encode without assembling a QUICPacket value first.
func AppendQUICPacket(b []byte, connID, packetNumber uint64, frames []Frame) []byte {
	b = append(b, 0x43) // flags: 8-byte connID, 6-byte packet number
	b = binary.BigEndian.AppendUint64(b, connID)
	var pn [8]byte
	binary.BigEndian.PutUint64(pn[:], packetNumber)
	b = append(b, pn[2:]...) // low 6 bytes
	for _, f := range frames {
		b = f.AppendTo(b)
	}
	return appendZeros(b, 12) // AEAD tag placeholder
}

// DecodeQUICPacket parses a packet produced by AppendTo.
func DecodeQUICPacket(b []byte) (*QUICPacket, error) {
	if len(b) < QUICHeaderSize {
		return nil, ErrTruncated
	}
	if b[0] != 0x43 {
		return nil, fmt.Errorf("wire: bad flags byte %#x", b[0])
	}
	p := &QUICPacket{ConnID: binary.BigEndian.Uint64(b[1:9])}
	var pn [8]byte
	copy(pn[2:], b[9:15])
	p.PacketNumber = binary.BigEndian.Uint64(pn[:])
	body := b[15 : len(b)-12]
	for len(body) > 0 {
		f, rest, err := decodeFrame(body)
		if err != nil {
			return nil, err
		}
		p.Frames = append(p.Frames, f)
		body = rest
	}
	return p, nil
}

func decodeFrame(b []byte) (Frame, []byte, error) {
	if len(b) == 0 {
		return nil, nil, ErrTruncated
	}
	switch FrameType(b[0]) {
	case FrameStream:
		if len(b) < 18 {
			return nil, nil, ErrTruncated
		}
		f := &StreamFrame{
			Fin:      b[1] != 0,
			StreamID: binary.BigEndian.Uint32(b[2:6]),
			Offset:   binary.BigEndian.Uint64(b[6:14]),
			Length:   binary.BigEndian.Uint32(b[14:18]),
		}
		if len(b) < 18+int(f.Length) {
			return nil, nil, ErrTruncated
		}
		return f, b[18+int(f.Length):], nil
	case FrameAck:
		if len(b) < 14 {
			return nil, nil, ErrTruncated
		}
		f := &AckFrame{
			LargestAcked: binary.BigEndian.Uint64(b[1:9]),
			AckDelay:     time.Duration(binary.BigEndian.Uint32(b[9:13])) * time.Microsecond,
		}
		nr := int(b[13])
		b = b[14:]
		if len(b) < 16*nr+1 {
			return nil, nil, ErrTruncated
		}
		for i := 0; i < nr; i++ {
			f.Ranges = append(f.Ranges, AckRange{
				Smallest: binary.BigEndian.Uint64(b[0:8]),
				Largest:  binary.BigEndian.Uint64(b[8:16]),
			})
			b = b[16:]
		}
		nts := int(b[0])
		b = b[1:]
		if len(b) < 5*nts {
			return nil, nil, ErrTruncated
		}
		f.ReceiveTimestamps = nts
		return f, b[5*nts:], nil
	case FrameWindowUpdate:
		if len(b) < 13 {
			return nil, nil, ErrTruncated
		}
		f := &WindowUpdateFrame{
			StreamID: binary.BigEndian.Uint32(b[1:5]),
			Offset:   binary.BigEndian.Uint64(b[5:13]),
		}
		return f, b[13:], nil
	case FrameBlocked:
		if len(b) < 5 {
			return nil, nil, ErrTruncated
		}
		return &BlockedFrame{StreamID: binary.BigEndian.Uint32(b[1:5])}, b[5:], nil
	case FrameStopWaiting:
		if len(b) < 9 {
			return nil, nil, ErrTruncated
		}
		return &StopWaitingFrame{LeastUnacked: binary.BigEndian.Uint64(b[1:9])}, b[9:], nil
	case FrameCrypto:
		if len(b) < 23 {
			return nil, nil, ErrTruncated
		}
		f := &CryptoFrame{
			Kind:         CryptoKind(b[1]),
			Resumable:    b[2] != 0,
			BodyLen:      binary.BigEndian.Uint32(b[3:7]),
			StreamWindow: binary.BigEndian.Uint64(b[7:15]),
			ConnWindow:   binary.BigEndian.Uint64(b[15:23]),
		}
		if len(b) < 23+int(f.BodyLen) {
			return nil, nil, ErrTruncated
		}
		return f, b[23+int(f.BodyLen):], nil
	case FramePing:
		return &PingFrame{}, b[1:], nil
	case FrameConnectionClose:
		if len(b) < 5 {
			return nil, nil, ErrTruncated
		}
		return &ConnectionCloseFrame{ErrorCode: binary.BigEndian.Uint32(b[1:5])}, b[5:], nil
	}
	return nil, nil, ErrBadFrame
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// zeros backs appendZeros; synthetic payload bytes are all zero.
var zeros [512]byte

// appendZeros appends n zero bytes without the temporary slice that
// append(b, make([]byte, n)...) allocates — the difference between an
// allocating and an allocation-free encoder on every data packet.
func appendZeros(b []byte, n int) []byte {
	for n > len(zeros) {
		b = append(b, zeros[:]...)
		n -= len(zeros)
	}
	return append(b, zeros[:n]...)
}

// SplitAckRanges converts a set of received packet numbers into maximal
// descending AckRanges, capped at maxRanges (oldest ranges dropped first,
// like gQUIC). received must be sorted ascending.
func SplitAckRanges(received []uint64, maxRanges int) []AckRange {
	if len(received) == 0 {
		return nil
	}
	var ranges []AckRange
	start, prev := received[0], received[0]
	for _, pn := range received[1:] {
		if pn == prev || pn == prev+1 {
			prev = pn
			continue
		}
		ranges = append(ranges, AckRange{Smallest: start, Largest: prev})
		start, prev = pn, pn
	}
	ranges = append(ranges, AckRange{Smallest: start, Largest: prev})
	// Reverse to descending (largest first).
	for i, j := 0, len(ranges)-1; i < j; i, j = i+1, j-1 {
		ranges[i], ranges[j] = ranges[j], ranges[i]
	}
	if maxRanges > 0 && len(ranges) > maxRanges {
		ranges = ranges[:maxRanges]
	}
	return ranges
}

// ValidateRanges checks AckFrame range invariants: descending, non-empty,
// non-overlapping, Smallest <= Largest, and LargestAcked in first range.
func (f *AckFrame) ValidateRanges() error {
	if len(f.Ranges) == 0 {
		return errors.New("wire: ack frame with no ranges")
	}
	if f.Ranges[0].Largest != f.LargestAcked {
		return fmt.Errorf("wire: largest acked %d not head of ranges", f.LargestAcked)
	}
	prevSmallest := uint64(math.MaxUint64)
	for i, r := range f.Ranges {
		if r.Smallest > r.Largest {
			return fmt.Errorf("wire: inverted range %d", i)
		}
		if r.Largest >= prevSmallest {
			return fmt.Errorf("wire: overlapping/unordered range %d", i)
		}
		prevSmallest = r.Smallest
	}
	return nil
}
