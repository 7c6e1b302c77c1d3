package quic

import (
	"slices"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/metrics"
	"quiclab/internal/netem"
	"quiclab/internal/profile"
	"quiclab/internal/ranges"
	"quiclab/internal/sim"
	"quiclab/internal/trace"
	"quiclab/internal/transport"
	"quiclab/internal/wire"
)

// packet is the in-simulator representation of a QUIC packet: structured
// frames plus the honest wire size (see internal/wire). It is what rides
// in netem.Packet.Payload. The packet owns its frames: items holds them in
// order, stream frames by value, and frames is the view of them that the
// encoder, verifyWire and the receiver read. finishPacket builds the view
// once items has stopped growing, so no pointer into items outlives a
// reallocation.
type packet struct {
	connID uint64
	pn     uint64
	items  []frame
	frames []wire.Frame
	size   int // wire size excluding UDP/IP overhead
}

// frame is one frame held by value: a stream frame inline, or a pointer to
// one of the rarer frames (ack, crypto, window update, blocked, ping,
// connection close), none of which is changed once built. Each holder — a
// packet's items, a sent record, retransQ — has its own copy, so nothing
// the sender keeps is shared with a packet in flight.
type frame struct {
	ctl    wire.Frame // nil for a stream frame
	stream wire.StreamFrame
}

// frameOf holds f by value if it is a stream frame.
func frameOf(f wire.Frame) frame {
	if sf, ok := f.(*wire.StreamFrame); ok {
		return frame{stream: *sf}
	}
	return frame{ctl: f}
}

func (f *frame) size() int {
	if f.ctl != nil {
		return f.ctl.Size()
	}
	return f.stream.Size()
}

// retransmittable reports whether the frame is repeated when its packet
// is lost: everything but acks and stop-waitings.
func (f *frame) retransmittable() bool {
	if f.ctl == nil {
		return true
	}
	t := f.ctl.Type()
	return t != wire.FrameAck && t != wire.FrameStopWaiting
}

// sentPacket tracks an in-flight retransmittable transmission for loss
// detection: one slot of the connection's sentRing (pool.go).
type sentPacket struct {
	live bool // the slot holds a record
	// The packet's retransmittable frames, in order: a stream frame that
	// comes first is held inline (inline set; fin, streamID, length and
	// offset are its fields, without wire.StreamFrame's padding), the rest
	// in more, whose capacity the slot keeps from one occupant to the next.
	// Most packets carry one stream frame and nothing else.
	inline   bool
	fin      bool
	nacks    int32
	pn       uint64 // also the packet's send index for the controller
	size     int
	timeSent time.Duration
	streamID uint32
	length   uint32
	offset   uint64
	more     []frame
}

func (sp *sentPacket) addFrame(f frame) {
	if f.ctl == nil && !sp.inline && len(sp.more) == 0 {
		sp.inline = true
		sp.streamID, sp.offset, sp.length, sp.fin = f.stream.StreamID, f.stream.Offset, f.stream.Length, f.stream.Fin
		return
	}
	sp.more = append(sp.more, f)
}

// head is the inline stream frame (the zero frame when there is none).
func (sp *sentPacket) head() wire.StreamFrame {
	return wire.StreamFrame{StreamID: sp.streamID, Offset: sp.offset, Length: sp.length, Fin: sp.fin}
}

// appendFrames appends the record's frames to q.
func (sp *sentPacket) appendFrames(q []frame) []frame {
	if sp.inline {
		q = append(q, frame{stream: sp.head()})
	}
	return append(q, sp.more...)
}

// handshake states.
const (
	hsNone     = iota
	hsWaitREJ  // client sent inchoate CHLO
	hsWaitCHLO // server waiting for full CHLO
	hsDone     // data may flow
)

// Conn is one QUIC connection (client or server side). The embedded
// transport.Conn carries everything the lab holds equal under both stacks.
type Conn struct {
	transport.Conn

	e        *Endpoint
	sim      *sim.Simulator
	id       uint64
	remote   netem.Addr
	isClient bool
	cfg      Config
	cc       cc.Controller

	hsState   int
	connected bool // app data may be sent (0-RTT counts)

	// Sender state.
	nextPN   uint64 // packet numbers are never reused: each is also a send index
	sent     sentRing
	inFlight int // bytes of retransmittable packets outstanding
	retransQ []frame
	cryptoQ  []wire.Frame
	controlQ []wire.Frame // window updates, blocked

	// minRTT rides beside the shared estimator (QUIC's unambiguous,
	// ack-delay-corrected sampling makes a minimum meaningful).
	minRTT time.Duration

	// Pacing.
	nextSendTime time.Duration
	sendTimer    sim.Timer

	// Loss alarms.
	lossTimer sim.Timer
	tlpCount  int
	rtoCount  int
	// probeCredit lets TLP/RTO probe retransmissions bypass pacing and
	// the congestion window: after an outage the in-flight accounting
	// still counts every dropped packet, and without the bypass the
	// collapsed post-RTO cwnd would block the very retransmission that
	// must elicit the ack to drain it.
	probeCredit int

	// Handshake retransmission (client).
	hsTimer sim.Timer
	hsRetry transport.Retry

	// Streams. streams finds one by id; rot is the scheduler's rotation,
	// every stream that may still send, in the order they were added, with
	// rrCursor on the one examined last (stream.go). nPending and
	// nWindowOpen count the streams with queued data and, of those, the ones
	// with stream-window room: what streamDemand answers from.
	streams       map[uint32]*Stream
	rot           []*Stream
	rrCursor      int
	nPending      int
	nWindowOpen   int
	examined      int // streams the scheduler has looked at (scaling guard)
	nextStreamID  uint32
	openCount     int
	activeStreams int // streams not yet fully delivered (processing load)

	// Connection-level flow control (send side). Peer windows are
	// learned from the handshake parameters (CHLO/REJ/SHLO).
	connSendLimit    uint64
	connSent         uint64
	flowBlocked      bool
	peerStreamWindow uint64

	// Flow-control time-series (nil when metrics are disabled).
	mConnWindow, mStreamWindow *metrics.Series

	// Receiver state.
	rcvdPNs         ranges.Set
	rangeScratch    []ranges.Range // reused by buildAckFrame
	largestRcvd     uint64
	largestRcvdTime time.Duration
	ackPending      int
	sinceLastAck    int
	ackTimer        sim.Timer
	rx              transport.ProcQueue[*packet]
	connConsumed    uint64
	connLimitSent   uint64
	cryptoRcvd      map[wire.CryptoKind]uint32

	// spurious holds declared-lost packet numbers, ascending, to detect
	// false losses (reordering mistaken for loss, paper §5.2).
	spurious []uint64
	// nackThreshold is the live threshold (adapted upward when
	// Config.AdaptiveNACK is set and a loss proves spurious).
	nackThreshold int

	// OnStream is invoked for each new peer-initiated stream.
	OnStream func(*Stream)

	// Bound timer callbacks. Method values (c.onLossAlarm etc.) allocate
	// a fresh closure at every Schedule call; binding them once per
	// connection keeps the alarm paths allocation-free.
	maybeSendFn func()
	lossAlarmFn func()
	hsAlarmFn   func()
	ackFlushFn  func()

	// Scratch list reused by onAckFrame's loss sweep: packet numbers, not
	// pointers into a ring that may grow.
	lostScratch []uint64
}

// CC returns the connection's congestion controller (for instrumentation).
func (c *Conn) CC() cc.Controller { return c.cc }

func newConn(e *Endpoint, id uint64, remote netem.Addr, isClient bool) *Conn {
	cfg := e.cfg
	c := e.takeConn()
	// The controller registers its series first, the base's follow: series
	// export in registration order, which the bundle bytes pin.
	c.cc = transport.NewController(cfg.CCAlgo, MaxPacketSize, cfg.CC, cfg.Tracer)
	e.Open(&c.Conn, cfg.Tracer, cfg.IdleTimeout)
	c.e = e
	c.sim = e.Sim()
	c.id = id
	c.remote = remote
	c.isClient = isClient
	c.cfg = cfg
	c.nextStreamID = 1
	c.nextPN = 1
	// Until the peer's handshake parameters arrive, assume windows
	// like our own (for 0-RTT resumption the cached config is, in
	// this model, refreshed by the CHLO/SHLO exchange in flight).
	c.connSendLimit = cfg.ConnRecvWindow
	c.peerStreamWindow = cfg.StreamRecvWindow
	c.connLimitSent = cfg.ConnRecvWindow
	c.minRTT = -1
	c.nackThreshold = cfg.NACKThreshold
	if !isClient {
		c.nextStreamID = 2
		// Server connections are born from a received packet; if the
		// client vanishes mid-handshake only the idle timer reaps them.
		c.ArmIdle()
	}
	c.mConnWindow = cfg.Tracer.Series(metrics.SeriesConnWindow, metrics.KindBytes)
	c.mStreamWindow = cfg.Tracer.Series(metrics.SeriesStreamWindow, metrics.KindBytes)
	return c
}

// sampleFlow records send-side flow-control headroom: the connection
// window remaining and, when a stream is given, its remaining window.
func (c *Conn) sampleFlow(s *Stream) {
	if c.mConnWindow == nil {
		return
	}
	now := c.sim.Now()
	c.mConnWindow.Record(now, float64(c.connSendLimit-c.connSent))
	if s != nil {
		c.mStreamWindow.Record(now, float64(s.sendWindow()))
	}
}

// --- Handshake ---------------------------------------------------------

func (c *Conn) startClientHandshake() {
	start := func() {
		if c.e.Has0RTT(c.remote) {
			// 0-RTT: full CHLO plus data in the same flight.
			c.handshakeDone(wire.CryptoFullCHLO, fullCHLOSize)
			return
		}
		c.hsState = hsWaitREJ
		c.sendCHLO()
	}
	if c.cfg.HandshakeCryptoDelay > 0 {
		c.sim.Schedule(c.cfg.HandshakeCryptoDelay, start)
	} else {
		start()
	}
}

// cryptoFrame builds a handshake frame advertising this endpoint's
// flow-control windows.
func (c *Conn) cryptoFrame(kind wire.CryptoKind, bodyLen uint32) *wire.CryptoFrame {
	return &wire.CryptoFrame{
		Kind:         kind,
		BodyLen:      bodyLen,
		StreamWindow: c.cfg.StreamRecvWindow,
		ConnWindow:   c.cfg.ConnRecvWindow,
	}
}

// applyPeerParams records the peer's advertised flow-control windows.
func (c *Conn) applyPeerParams(f *wire.CryptoFrame) {
	if f.StreamWindow == 0 || f.ConnWindow == 0 {
		return
	}
	c.peerStreamWindow = f.StreamWindow
	// The connection limit can only shrink before any stream data has
	// been sent; window updates raise it later.
	if f.ConnWindow > c.connSendLimit || c.connSent == 0 {
		c.connSendLimit = f.ConnWindow
	}
	// Streams out of the rotation will not send again: their limit is moot.
	for _, s := range c.rot {
		if s.sentLen == 0 {
			s.sendLimit = f.StreamWindow
			c.sendStateChanged(s)
		}
	}
}

func (c *Conn) handleCrypto(f *wire.CryptoFrame) {
	c.cryptoRcvd[f.Kind] += f.BodyLen
	c.applyPeerParams(f)
	switch f.Kind {
	case wire.CryptoInchoateCHLO:
		if !c.isClient && c.hsState == hsNone {
			c.hsState = hsWaitCHLO
			// REJ carries the server config; may span packets.
			remaining := uint32(rejSize)
			overhead := uint32((&wire.CryptoFrame{}).Size())
			for remaining > 0 {
				n := remaining
				if max := uint32(MaxPacketSize-wire.QUICHeaderSize) - overhead; n > max {
					n = max
				}
				rej := c.cryptoFrame(wire.CryptoREJ, n)
				rej.Resumable = !c.cfg.No0RTTServer
				c.cryptoQ = append(c.cryptoQ, rej)
				remaining -= n
			}
			c.maybeSend()
		}
	case wire.CryptoREJ:
		if c.isClient && c.hsState == hsWaitREJ && c.cryptoRcvd[wire.CryptoREJ] >= rejSize {
			// Server config received: cache it (enables future 0-RTT,
			// unless the server marked it non-resumable) and complete the
			// handshake; data can ride with the full CHLO.
			if f.Resumable {
				c.e.sessionCache[c.remote] = true
			}
			c.handshakeDone(wire.CryptoFullCHLO, fullCHLOSize)
		}
	case wire.CryptoFullCHLO:
		if !c.isClient && c.hsState != hsDone {
			c.handshakeDone(wire.CryptoSHLO, shloSize)
		}
	case wire.CryptoSHLO:
		// Forward-secure keys established; nothing to model further.
	}
}

// handshakeDone queues the flight that completes the handshake and opens
// the connection for data: stop the handshake timer, arm idle, reclassify,
// then the OnConnected callbacks (which find the flight already queued).
func (c *Conn) handshakeDone(kind wire.CryptoKind, size uint32) {
	c.hsState = hsDone
	c.connected = true
	c.cryptoQ = append(c.cryptoQ, c.cryptoFrame(kind, size))
	c.hsTimer.Stop()
	c.ArmIdle()
	c.Reclassify()
	c.FireConnected()
	c.maybeSend()
}

// sendCHLO offers the inchoate CHLO — first from startClientHandshake,
// then from its own retransmission alarm (duplicates are idempotent at the
// server; lost REJ/CHLO packets beyond the first flight are also covered by
// the generic TLP/RTO machinery).
func (c *Conn) sendCHLO() {
	if c.Closed() || c.hsState == hsDone {
		return
	}
	wait, ok := c.hsRetry.Next()
	if !ok {
		c.Abort(trace.ReasonHandshakeFailure)
		return
	}
	c.cryptoQ = append(c.cryptoQ, c.cryptoFrame(wire.CryptoInchoateCHLO, inchoateCHLOSize))
	c.maybeSend()
	c.hsTimer = c.sim.Schedule(wait, c.hsAlarmFn)
}

// sendClose is an abnormal close's last words: a best-effort
// ConnectionClose to the peer (the path may well be dead), after the
// close is classified and traced and before teardown — unless the peer's
// own ConnectionClose is the reason.
func (c *Conn) sendClose(reason string) {
	if reason != trace.ReasonPeerClosed {
		c.sendFrames([]wire.Frame{&wire.ConnectionCloseFrame{}}, false)
	}
}

// teardown is Close's stack half: stop the protocol timers and leave the
// endpoint's live set.
func (c *Conn) teardown() {
	c.lossTimer.Stop()
	c.ackTimer.Stop()
	c.sendTimer.Stop()
	c.hsTimer.Stop()
	c.e.Remove(c.id, c)
}

// --- Sending -----------------------------------------------------------

// maybeSend drains the send path: control frames immediately, data frames
// subject to congestion control, pacing, and flow control.
func (c *Conn) maybeSend() {
	if c.Closed() {
		return
	}
	for {
		now := c.sim.Now()
		// Ack/control-only packets bypass pacing and cc.
		if !c.hasDataToSend() {
			if !c.buildAndSendControlOnly() {
				c.updateAppLimited()
				return
			}
			continue
		}
		if c.probeCredit == 0 {
			if pace := c.cc.PacingRate(); pace > 0 && now < c.nextSendTime {
				if !c.sendTimer.Pending() {
					c.sendTimer = c.sim.ScheduleAt(c.nextSendTime, c.maybeSendFn)
				}
				c.Reclassify()
				return
			}
			if !c.cc.CanSend(c.inFlight) {
				// cwnd-blocked: flush any pending acks so the peer keeps
				// getting feedback, then wait for acks.
				c.buildAndSendControlOnly()
				c.updateAppLimited()
				return
			}
		}
		pkt, retransmittable := c.buildPacket()
		if pkt == nil {
			c.updateAppLimited()
			return
		}
		if c.probeCredit > 0 {
			c.probeCredit--
		}
		c.sendPacket(pkt, retransmittable)
	}
}

// hasDataToSend reports whether retransmittable frames are queued or
// stream data is pending (regardless of flow control).
func (c *Conn) hasDataToSend() bool {
	if len(c.cryptoQ) > 0 || len(c.retransQ) > 0 || len(c.controlQ) > 0 {
		return true
	}
	pending, _ := c.streamDemand()
	return pending
}

// streamDemand: pending reports that some stream has queued data, sendable
// that some stream's queued data also fits its stream window and the
// connection window. Pending but not sendable means flow control is the
// blocker. Both come from counts kept by sendStateChanged.
func (c *Conn) streamDemand() (pending, sendable bool) {
	if !c.connected {
		return false, false
	}
	return c.nPending > 0, c.nWindowOpen > 0 && c.connSent < c.connSendLimit
}

// updateAppLimited classifies why the sender is idle when cwnd has
// room: LimitFlow when stream data is pending but flow control blocks
// it, LimitApp when the application has nothing queued (Table 3's
// ApplicationLimited covers both; the split feeds bandwidth-sampling
// controllers and stall attribution).
func (c *Conn) updateAppLimited() {
	if c.Closed() {
		return
	}
	why := cc.LimitNone
	if c.cc.CanSend(c.inFlight) && len(c.cryptoQ) == 0 && len(c.retransQ) == 0 {
		if pending, sendable := c.streamDemand(); !sendable {
			why = cc.LimitApp
			if pending {
				why = cc.LimitFlow
			}
		}
	}
	c.cc.SetAppLimited(c.sim.Now(), why)
	c.Reclassify()
}

// classify maps the connection's current predicates to its exclusive
// stall state. Evaluated only at the send path's idle points — the
// send loop runs at a single virtual instant, so intermediate states
// have zero width and the exactness invariant is preserved.
func (c *Conn) classify() profile.State {
	if !c.connected {
		return profile.StateHandshake
	}
	if c.cc.State() == cc.StateRecovery {
		return profile.StateRecovery
	}
	framesQueued := len(c.cryptoQ) > 0 || len(c.retransQ) > 0
	pending, sendable := c.streamDemand()
	if framesQueued || len(c.controlQ) > 0 || pending {
		if pending && !sendable && !framesQueued {
			if c.connSent >= c.connSendLimit {
				return profile.StateFlowCtlConn
			}
			return profile.StateFlowCtlStream
		}
		if c.probeCredit == 0 {
			if pace := c.cc.PacingRate(); pace > 0 && c.sim.Now() < c.nextSendTime {
				return profile.StatePacingGated
			}
			if !c.cc.CanSend(c.inFlight) {
				return profile.StateCwndLimited
			}
		}
		return profile.StateTransfer
	}
	if c.inFlight > 0 {
		// Idle with data outstanding: healthy ack-clocking, unless the
		// TLP/RTO ladder has fired and we are waiting on probe timers
		// (counters reset as soon as an ack arrives).
		if c.tlpCount > 0 || c.rtoCount > 0 {
			return profile.StateRTOWait
		}
		return profile.StateTransfer
	}
	return profile.StateAppLimited
}

// buildAndSendControlOnly emits a pure control packet (ACK, window
// updates) if needed. Reports whether one was sent.
func (c *Conn) buildAndSendControlOnly() bool {
	p := getPacket()
	var size int
	if c.ackPending > 0 {
		af := c.buildAckFrame()
		p.items = append(p.items, frame{ctl: af})
		size += af.Size()
	}
	for len(c.controlQ) > 0 && size+c.controlQ[0].Size() <= MaxPacketSize-wire.QUICHeaderSize {
		f := c.controlQ[0]
		c.controlQ = c.controlQ[1:]
		p.items = append(p.items, frame{ctl: f})
		size += f.Size()
	}
	if len(p.items) == 0 {
		releasePacket(p)
		return false
	}
	// Window updates are retransmittable; ack-only packets are not.
	retransmittable := false
	for i := range p.items {
		if p.items[i].retransmittable() {
			retransmittable = true
		}
	}
	c.sendPacket(c.finishPacket(p), retransmittable)
	return true
}

// buildPacket assembles the next data-bearing packet: piggybacked ack,
// crypto, retransmissions, then fresh stream data round-robin across
// active streams (the multiplexing whose HyStart interaction the paper
// analyses).
func (c *Conn) buildPacket() (*packet, bool) {
	budget := MaxPacketSize - wire.QUICHeaderSize
	p := getPacket()
	retransmittable := false

	if c.ackPending > 0 {
		af := c.buildAckFrame()
		if af.Size() <= budget {
			p.items = append(p.items, frame{ctl: af})
			budget -= af.Size()
		} else {
			releaseAckFrame(af)
		}
	}
	for len(c.cryptoQ) > 0 && c.cryptoQ[0].Size() <= budget {
		f := c.cryptoQ[0]
		c.cryptoQ = c.cryptoQ[1:]
		p.items = append(p.items, frame{ctl: f})
		budget -= f.Size()
		retransmittable = true
	}
	for len(c.controlQ) > 0 && c.controlQ[0].Size() <= budget {
		f := c.controlQ[0]
		c.controlQ = c.controlQ[1:]
		p.items = append(p.items, frame{ctl: f})
		budget -= f.Size()
		retransmittable = true
	}
	for len(c.retransQ) > 0 {
		f := &c.retransQ[0]
		if f.size() > budget {
			// Split an oversized stream retransmission: the part goes
			// out, the rest stays at the head of the queue.
			if f.ctl == nil {
				overhead := (&wire.StreamFrame{}).Size()
				if budget > overhead+64 {
					take := uint32(budget - overhead)
					part := wire.StreamFrame{StreamID: f.stream.StreamID, Offset: f.stream.Offset, Length: take}
					f.stream.Offset += uint64(take)
					f.stream.Length -= take
					p.items = append(p.items, frame{stream: part})
					budget -= part.Size()
					retransmittable = true
				}
			}
			break
		}
		c.retransQ = c.retransQ[1:]
		p.items = append(p.items, *f)
		budget -= f.size()
		retransmittable = true
	}
	// Fresh stream data, round-robin: one turn of the rotation at most,
	// starting after the stream examined last. A turn that runs out of
	// budget leaves the cursor on the stream it served last; one that runs
	// out of streams first leaves it where it started.
	if c.connected {
		streamOverhead := (&wire.StreamFrame{}).Size()
		start := c.rrCursor
		for tries := len(c.rot); tries > 0 && budget > streamOverhead; tries-- {
			if c.rrCursor++; c.rrCursor >= len(c.rot) {
				c.rrCursor = 0
			}
			s := c.rot[c.rrCursor]
			c.examined++
			if !s.sendPending() {
				continue
			}
			avail := s.sendWindow()
			if connAvail := c.connSendLimit - c.connSent; connAvail < avail {
				avail = connAvail
			}
			if avail == 0 {
				if !c.flowBlocked {
					c.flowBlocked = true
					c.controlQ = append(c.controlQ, &wire.BlockedFrame{StreamID: s.id})
					c.cfg.Tracer.FlowBlocked(c.sim.Now(), s.id)
				}
				continue
			}
			take := uint64(budget - streamOverhead)
			if p := s.pendingBytes(); p < take {
				take = p
			}
			if avail < take {
				take = avail
			}
			fin := s.finWrite && s.sentLen+take == s.writeLen
			f := wire.StreamFrame{StreamID: s.id, Offset: s.sentLen, Length: uint32(take), Fin: fin}
			s.sentLen += take
			c.connSent += take
			p.items = append(p.items, frame{stream: f})
			budget -= f.Size()
			retransmittable = true
			c.flowBlocked = false
			c.sampleFlow(s)
			if fin {
				// Send-complete: the stream leaves the rotation, and the
				// cursor (and a start at or after it) steps back with it so
				// that its successor is still the next stream examined.
				s.finSent = true
				c.rot = slices.Delete(c.rot, c.rrCursor, c.rrCursor+1)
				if c.rrCursor <= start {
					start--
				}
				c.rrCursor--
			}
			c.sendStateChanged(s)
		}
		if budget > streamOverhead {
			c.rrCursor = start
		}
	}
	if len(p.items) == 0 {
		releasePacket(p)
		return nil, false
	}
	return c.finishPacket(p), retransmittable
}

// finishPacket assigns the packet number and wire size to an assembled
// (pooled) packet and builds its frames view over the finished items.
func (c *Conn) finishPacket(p *packet) *packet {
	p.connID = c.id
	p.pn = c.nextPN
	c.nextPN++
	size := wire.QUICHeaderSize
	for i := range p.items {
		f := &p.items[i]
		size += f.size()
		if f.ctl != nil {
			p.frames = append(p.frames, f.ctl)
		} else {
			p.frames = append(p.frames, &f.stream)
		}
	}
	p.size = size
	return p
}

func (c *Conn) sendFrames(frames []wire.Frame, retransmittable bool) {
	p := getPacket()
	for _, f := range frames {
		p.items = append(p.items, frameOf(f))
	}
	c.sendPacket(c.finishPacket(p), retransmittable)
}

// firstStreamID returns the stream id of the first stream frame in the
// packet (0 if none) — the "where applicable" stream attribution for
// per-packet trace events.
func firstStreamID(frames []wire.Frame) uint32 {
	for _, f := range frames {
		if sf, ok := f.(*wire.StreamFrame); ok {
			return sf.StreamID
		}
	}
	return 0
}

func (c *Conn) sendPacket(p *packet, retransmittable bool) {
	now := c.sim.Now()
	if retransmittable {
		sp := c.sent.add(p.pn)
		sp.size = p.size
		sp.timeSent = now
		for i := range p.items {
			if f := &p.items[i]; f.retransmittable() {
				sp.addFrame(*f)
			}
		}
		c.inFlight += p.size
		c.SampleInFlight(c.inFlight)
		c.cc.OnPacketSent(now, p.pn, p.size)
		c.cc.SetAppLimited(now, cc.LimitNone)
		// Pacing bookkeeping. Real pacers run off coarse alarms (gQUIC's
		// alarm granularity was ~1-2 ms), so packets go out in small
		// bursts with jittered gaps rather than in perfect lockstep with
		// the bottleneck drain — without this, the simulation's pacer
		// would deterministically claim every freed queue slot and
		// starve competing flows beyond anything seen in real testbeds.
		if rate := c.cc.PacingRate(); rate > 0 {
			c.cfg.Tracer.PacingRelease(now, p.pn)
			gap := time.Duration(float64(p.size) / rate * float64(time.Second))
			gap = time.Duration(float64(gap) * (0.7 + 0.6*c.sim.Rand().Float64()))
			if c.nextSendTime < now {
				c.nextSendTime = now
			}
			c.nextSendTime += gap
		}
		c.setLossAlarm()
	}
	// Ack bookkeeping: this packet carried any pending ack.
	for _, f := range p.frames {
		if f.Type() == wire.FrameAck {
			c.ackPending = 0
			c.sinceLastAck = 0
			c.ackTimer.Stop()
		}
	}
	c.cfg.Tracer.PacketSent(now, p.pn, p.size, firstStreamID(p.frames))
	npkt := netem.NewPacket(c.e.Addr(), c.remote, p.size+wire.UDPIPOverhead, p)
	if c.cfg.WireEncode {
		buf := netem.GetBuf()
		buf.B = wire.AppendQUICPacket(buf.B, p.connID, p.pn, p.frames)
		npkt.Wire = buf
	}
	c.e.Net.Send(npkt)
}
