package quic

import (
	"fmt"

	"quiclab/internal/ranges"
	"quiclab/internal/wire"
)

// Stream is one QUIC stream. Payload bytes are synthetic: writers supply
// lengths, readers observe consumed-byte counts; offsets, flow control,
// retransmission and multiplexing are all real.
type Stream struct {
	c  *Conn
	id uint32

	// Send state.
	writeLen uint64 // bytes the application has written
	sentLen  uint64 // bytes handed to packets (contiguous)
	finWrite bool
	finSent  bool
	// sendLimit is the peer's advertised stream flow-control offset.
	sendLimit uint64
	// What Conn.nPending and nWindowOpen currently count this stream as.
	pending, windowOpen bool

	// Receive state.
	rcvd      ranges.Set
	consumed  uint64 // in-order bytes delivered to the app
	finalLen  uint64
	hasFinal  bool
	limitSent uint64 // last advertised receive offset
	done      bool

	// OnData is invoked after processing delivers in-order bytes;
	// delta is the newly consumed byte count and done reports FIN
	// consumption (the response is complete).
	OnData func(delta int, done bool)
}

// ID returns the stream id.
func (s *Stream) ID() uint32 { return s.id }

// Done reports whether the stream's incoming side has fully delivered.
func (s *Stream) Done() bool { return s.done }

func (s *Stream) sendPending() bool {
	return s.sentLen < s.writeLen || (s.finWrite && !s.finSent)
}

func (s *Stream) pendingBytes() uint64 { return s.writeLen - s.sentLen }

// sendStateChanged brings the connection's stream-demand counts up to date
// with s. A stream's send state changes in four places — Write, the take in
// buildPacket, onWindowUpdate, applyPeerParams — and each calls this, so
// nothing ever has to walk the streams to learn whether any can send.
func (c *Conn) sendStateChanged(s *Stream) {
	pending := s.sendPending()
	windowOpen := pending && s.sendWindow() > 0
	c.nPending += boolToInt(pending) - boolToInt(s.pending)
	c.nWindowOpen += boolToInt(windowOpen) - boolToInt(s.windowOpen)
	s.pending, s.windowOpen = pending, windowOpen
}

// sendWindow returns stream-level flow-control room.
func (s *Stream) sendWindow() uint64 {
	if s.sentLen >= s.sendLimit {
		return 0
	}
	return s.sendLimit - s.sentLen
}

// Write appends n synthetic bytes to the stream; fin marks the end of
// the stream's data. Writing after fin panics.
func (s *Stream) Write(n int, fin bool) {
	if s.finWrite {
		panic(fmt.Sprintf("quic: write on finished stream %d", s.id))
	}
	s.writeLen += uint64(n)
	if fin {
		s.finWrite = true
	}
	s.c.sendStateChanged(s)
	s.c.maybeSend()
}

// CanOpenStream reports whether another stream may be opened under the
// peer's MaxStreamsPerConnection limit.
func (c *Conn) CanOpenStream() bool {
	return c.openCount < c.cfg.MaxStreams
}

// OpenStream creates a new locally-initiated stream. It returns an error
// when the MaxStreamsPerConnection limit (the paper's MSPC) is reached;
// callers queue and retry when a stream completes.
func (c *Conn) OpenStream() (*Stream, error) {
	if !c.CanOpenStream() {
		return nil, fmt.Errorf("quic: stream limit %d reached", c.cfg.MaxStreams)
	}
	s := c.addStream(c.nextStreamID)
	c.nextStreamID += 2
	c.openCount++
	return s, nil
}

func (c *Conn) addStream(id uint32) *Stream {
	s := &Stream{
		c:         c,
		id:        id,
		sendLimit: c.peerStreamWindow, // learned from handshake params
		limitSent: c.cfg.StreamRecvWindow,
	}
	c.streams[id] = s
	c.rot = append(c.rot, s)
	c.activeStreams++
	return s
}

// onStreamFrame handles received stream data: record the range, advance
// the in-order consumed prefix, issue flow-control updates, and deliver
// to the application. Because this runs after the receive processing
// delay, slow devices consume (and therefore ack/unblock) slowly.
func (c *Conn) onStreamFrame(f *wire.StreamFrame) {
	s, ok := c.streams[f.StreamID]
	if !ok {
		// Peer-initiated stream.
		s = c.addStream(f.StreamID)
		if c.OnStream != nil {
			c.OnStream(s)
		}
	}
	s.rcvd.Add(f.Offset, f.Offset+uint64(f.Length))
	if f.Fin {
		s.hasFinal = true
		s.finalLen = f.Offset + uint64(f.Length)
	}
	newConsumed := s.rcvd.ContiguousEnd(0)
	if newConsumed > s.consumed {
		delta := newConsumed - s.consumed
		s.consumed = newConsumed
		c.connConsumed += delta
		s.maybeSendWindowUpdate()
		c.maybeSendConnWindowUpdate()
		done := s.hasFinal && s.consumed >= s.finalLen
		if done {
			s.markDone()
		}
		if s.OnData != nil {
			s.OnData(int(delta), done)
		}
	} else if s.hasFinal && s.consumed >= s.finalLen && !s.done {
		s.markDone()
		if s.OnData != nil {
			s.OnData(0, true)
		}
	}
}

// markDone finalises the incoming side of a stream: it stops counting
// toward receive-processing load and frees its MSPC slot if locally
// initiated.
func (s *Stream) markDone() {
	if s.done {
		return
	}
	s.done = true
	c := s.c
	c.activeStreams--
	if c.openCount > 0 && s.id%2 == uint32(boolToInt(c.isClient)) {
		c.openCount--
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// maybeSendWindowUpdate advertises more stream receive window once half
// the current window is consumed.
func (s *Stream) maybeSendWindowUpdate() {
	win := s.c.cfg.StreamRecvWindow
	if s.limitSent-s.consumed < win/2 {
		s.limitSent = s.consumed + win
		s.c.controlQ = append(s.c.controlQ, &wire.WindowUpdateFrame{StreamID: s.id, Offset: s.limitSent})
	}
}

func (c *Conn) maybeSendConnWindowUpdate() {
	win := c.cfg.ConnRecvWindow
	if c.connLimitSent-c.connConsumed < win/2 {
		c.connLimitSent = c.connConsumed + win
		c.controlQ = append(c.controlQ, &wire.WindowUpdateFrame{StreamID: 0, Offset: c.connLimitSent})
	}
}

// onWindowUpdate raises send-side flow-control limits.
func (c *Conn) onWindowUpdate(f *wire.WindowUpdateFrame) {
	if f.StreamID == 0 {
		if f.Offset > c.connSendLimit {
			c.connSendLimit = f.Offset
			if c.flowBlocked {
				c.cfg.Tracer.FlowUnblocked(c.sim.Now(), 0)
			}
			c.sampleFlow(nil)
		}
		return
	}
	if s, ok := c.streams[f.StreamID]; ok {
		if f.Offset > s.sendLimit {
			s.sendLimit = f.Offset
			c.sendStateChanged(s)
			if c.flowBlocked {
				c.cfg.Tracer.FlowUnblocked(c.sim.Now(), f.StreamID)
			}
			c.sampleFlow(s)
		}
	}
}
