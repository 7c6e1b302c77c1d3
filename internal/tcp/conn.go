package tcp

import (
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

// sentSeg tracks one transmitted segment for RTT sampling and loss
// detection. Unlike QUIC, a retransmission reuses the same sequence range
// (the retransmission ambiguity the paper contrasts with QUIC's fresh
// packet numbers).
type sentSeg struct {
	seq, end uint64
	sendIdx  uint64
	timeSent time.Duration
	rexmit   bool
	// fackBase is the highest SACKed sequence at transmit time: loss
	// re-detection for a retransmission requires new SACK evidence
	// beyond this point (prevents retransmit storms).
	fackBase uint64
}

// Conn is one TCP+TLS connection. The embedded transport.Conn carries
// everything the lab holds equal under both stacks.
type Conn struct {
	transport.Conn

	e        *Endpoint
	sim      *sim.Simulator
	remote   netem.Addr
	port     uint32
	isClient bool
	cfg      Config
	cc       cc.Controller

	// TCP/TLS handshake state.
	tcpEstablished bool
	synTimer       sim.Timer
	synRetry       transport.Retry
	connected      bool   // TLS finished; app data flows
	hsSent         uint64 // handshake bytes queued by us so far
	peerHSBytes    uint64 // total handshake bytes the peer will send us

	// Send side. Stream offsets are 0-based; the first bytes are the
	// handshake messages, app data follows.
	sndUna, sndNxt uint64
	writeLen       uint64
	pendingApp     uint64 // app bytes buffered until TLS completes
	sb             scoreboard
	sacked         ranges.Set
	dupThresh      int
	dupAcks        int
	peerWnd        uint64
	nextSendIdx    uint64
	retransQ       []ranges.Range
	outBytes       int // bytes in tracked (unacked, unsacked, unlost) segments
	rtoTimer       sim.Timer
	rtoCount       int
	lastRTOAt      time.Duration
	tlpFired       bool
	flowBlocked    bool   // peer-window limited (for blocked/unblocked events)
	tlpProbeSeq    uint64 // seq of the last TLP probe (DSACKs for it are not reordering)
	tlpProbeSet    bool

	// Receive side.
	received     ranges.Set
	rcvNxt       uint64
	consumed     uint64 // post-processing in-order bytes
	rx           transport.ProcQueue[*wire.TCPSegment]
	ackPending   int
	ackNow       bool
	ackTimer     sim.Timer
	sackScratch  []ranges.Range // reused by fillAckFields
	pendingDSACK *wire.SACKBlock
	lastTSVal    uint32

	// OnData delivers newly consumed application bytes (handshake bytes
	// are filtered out).
	OnData func(delta int)

	// Bound timer callbacks. Method values (c.onRTO etc.) allocate a
	// fresh closure at every Schedule call; binding them once per
	// connection keeps the alarm paths allocation-free.
	sendSYNFn  func()
	onTLPFn    func()
	onRTOFn    func()
	flushAckFn func()

	// Free list of sentSeg records plus the scratch list reused by
	// detectLosses (see pool.go).
	ssFree      []*sentSeg
	lostScratch []*sentSeg

	// Peer-window headroom series (nil when metrics are disabled).
	mFlowWindow *metrics.Series
}

// CC returns the congestion controller (for instrumentation).
func (c *Conn) CC() cc.Controller { return c.cc }

// DupThresh returns the current fast-retransmit duplicate threshold
// (adapted upward by DSACK under reordering).
func (c *Conn) DupThresh() int { return c.dupThresh }

func newConn(e *Endpoint, remote netem.Addr, port uint32, isClient bool) *Conn {
	cfg := e.cfg
	// The controller registers its series first, the base's follow: series
	// export in registration order, which the bundle bytes pin.
	ctrl := transport.NewController(cfg.CCAlgo, wire.TCPMSS, cfg.CC, cfg.Tracer)
	c := e.takeConn()
	e.Open(&c.Conn, cfg.Tracer, cfg.IdleTimeout)
	c.e = e
	c.sim = e.Sim()
	c.remote = remote
	c.port = port
	c.isClient = isClient
	c.cfg = cfg
	c.cc = ctrl
	c.dupThresh = initialDupThresh
	c.peerWnd = wire.TCPMSS * 10 // until first advertisement
	c.nextSendIdx = 1
	if isClient {
		c.peerHSBytes = hsServerBytes
	} else {
		c.peerHSBytes = hsClientBytes
		// Server connections are born from a received SYN; if the client
		// vanishes mid-handshake only the idle timer reaps them.
		c.ArmIdle()
	}
	c.mFlowWindow = cfg.Tracer.Series(metrics.SeriesConnWindow, metrics.KindBytes)
	return c
}

// sampleFlow records the peer-advertised window headroom — the bytes the
// receiver still permits beyond what has been sent (TCP's single flow
// window, vs QUIC's split conn/stream windows).
func (c *Conn) sampleFlow() {
	if c.mFlowWindow == nil {
		return
	}
	avail := c.sndUna + c.peerWnd
	if c.sndNxt < avail {
		avail -= c.sndNxt
	} else {
		avail = 0
	}
	c.mFlowWindow.Record(c.sim.Now(), float64(avail))
}

// --- Handshake ----------------------------------------------------------

func (c *Conn) startHandshake() {
	c.sendSYN()
}

// sendSYN sends the SYN — first from startHandshake, then from its own
// retransmission alarm (Linux's tcp_syn_retries behaviour).
func (c *Conn) sendSYN() {
	if c.Closed() || c.tcpEstablished {
		return
	}
	wait, ok := c.synRetry.Next()
	if !ok {
		c.Abort(trace.ReasonHandshakeFailure)
		return
	}
	syn := getSegment()
	syn.SYN = true
	syn.Window = uint64(c.cfg.RecvBuffer)
	c.sendSegment(syn)
	c.synTimer = c.sim.Schedule(wait, c.sendSYNFn)
}

func (c *Conn) onSYN(seg *wire.TCPSegment) {
	c.peerWnd = seg.Window
	if seg.ACK {
		// Client: SYN+ACK received.
		if !c.tcpEstablished {
			c.tcpEstablished = true
			c.synTimer.Stop()
			// TLS ClientHello rides on the handshake-completing ACK.
			c.queueHS(clientHelloSize)
			c.maybeSend()
		}
		return
	}
	// Server: SYN received; reply SYN+ACK.
	c.tcpEstablished = true
	synAck := getSegment()
	synAck.SYN, synAck.ACK = true, true
	synAck.Window = uint64(c.cfg.RecvBuffer)
	c.sendSegment(synAck)
}

func (c *Conn) queueHS(n int) {
	c.writeLen += uint64(n)
	c.hsSent += uint64(n)
}

// handleHSProgress advances the TLS state machine as handshake bytes are
// consumed from the peer.
func (c *Conn) handleHSProgress() {
	if c.connected {
		return
	}
	if c.isClient {
		if c.consumed >= serverFlightSize && c.hsSent < hsClientBytes {
			c.queueHS(clientKexSize)
		}
		if c.consumed >= hsServerBytes {
			c.becomeConnected()
		}
	} else {
		if c.consumed >= clientHelloSize && c.hsSent < serverFlightSize {
			c.queueHS(serverFlightSize)
		}
		if c.consumed >= hsClientBytes {
			if c.hsSent < hsServerBytes {
				c.queueHS(serverFinSize)
			}
			c.becomeConnected()
		}
	}
	c.maybeSend()
}

func (c *Conn) becomeConnected() {
	if c.connected {
		return
	}
	c.connected = true
	c.ArmIdle()
	c.Reclassify()
	// Flush app data buffered during the handshake.
	c.writeLen += c.pendingApp
	c.pendingApp = 0
	c.FireConnected()
}

// Write queues n synthetic application bytes for sending. Callers that
// model TLS record framing (e.g. internal/web) add wire.TLSRecordOverhead
// themselves, so proxies can relay byte counts unchanged.
func (c *Conn) Write(n int) {
	if !c.connected {
		c.pendingApp += uint64(n)
		return
	}
	c.writeLen += uint64(n)
	c.maybeSend()
}

// teardown is Close's stack half: stop the protocol timers and leave the
// endpoint's live set. The model has no FIN/RST exchange — after an
// abnormal close the peer reaps the half-dead connection through its own
// idle timer.
func (c *Conn) teardown() {
	c.synTimer.Stop()
	c.rtoTimer.Stop()
	c.ackTimer.Stop()
	c.e.Remove(connKey{c.remote, c.port}, c)
}

// --- Sending -------------------------------------------------------------

// pipe is the bytes considered in flight: transmitted segments not yet
// cumulatively acked, SACKed, or declared lost (lost/requeued bytes are
// no longer in the pipe, which is what lets post-RTO retransmissions
// proceed under the collapsed window).
func (c *Conn) pipe() int { return c.outBytes }

// untrack removes a segment from the in-flight accounting; the caller
// takes it off the scoreboard.
func (c *Conn) untrack(ss *sentSeg) {
	c.outBytes -= int(ss.end - ss.seq)
	if c.outBytes < 0 {
		c.outBytes = 0
	}
	c.SampleInFlight(c.outBytes)
}

func (c *Conn) maybeSend() {
	if c.Closed() || !c.tcpEstablished {
		return
	}
	mss := uint64(wire.TCPMSS)
	sentSomething := false
	for {
		// Retransmissions take priority and are clocked by cc too.
		if len(c.retransQ) > 0 {
			r := c.retransQ[0]
			// Drop or clip ranges the cumulative ack has already covered.
			if r.End <= c.sndUna {
				c.retransQ = c.retransQ[1:]
				continue
			}
			if r.Start < c.sndUna {
				r.Start = c.sndUna
			}
			if !c.cc.CanSend(c.pipe()) {
				break
			}
			c.retransQ = c.retransQ[1:]
			c.retransmitRange(r)
			sentSomething = true
			continue
		}
		if c.sndNxt >= c.writeLen {
			break // nothing new to send
		}
		if c.sndNxt >= c.sndUna+c.peerWnd {
			if !c.flowBlocked {
				c.flowBlocked = true
				c.cfg.Tracer.FlowBlocked(c.sim.Now(), 0)
			}
			break // receive-window limited
		}
		if !c.cc.CanSend(c.pipe()) {
			break // cwnd limited
		}
		end := c.sndNxt + mss
		if end > c.writeLen {
			end = c.writeLen
		}
		if end > c.sndUna+c.peerWnd {
			end = c.sndUna + c.peerWnd
		}
		c.transmit(c.sndNxt, end, false)
		c.sndNxt = end
		sentSomething = true
	}
	// Data segments piggybacked the ack; otherwise honour the delayed-ack
	// policy (immediate only for out-of-order or every-2nd acks) —
	// flushing eagerly here would emit redundant pure acks the peer must
	// count as duplicates.
	if !sentSomething && (c.ackNow || c.ackPending >= ackEveryN) {
		c.flushAck()
	}
	c.updateAppLimited()
	c.armRTO()
}

func (c *Conn) updateAppLimited() {
	if c.Closed() {
		return
	}
	// Cwnd has room but the sender is idle: LimitFlow when unsent data
	// exists and the peer's window is closed, LimitApp when the write
	// buffer is drained.
	why := cc.LimitNone
	if c.cc.CanSend(c.pipe()) {
		switch {
		case c.sndNxt < c.writeLen && c.sndNxt >= c.sndUna+c.peerWnd:
			why = cc.LimitFlow
		case c.sndNxt >= c.writeLen:
			why = cc.LimitApp
		}
	}
	if c.sndNxt == 0 {
		why = cc.LimitNone // nothing ever sent; stay in Init
	}
	c.cc.SetAppLimited(c.sim.Now(), why)
	c.Reclassify()
}

// classify maps the connection's current predicates to its exclusive
// stall state. TCP has no pacer and a single peer window, so
// pacing_gated and flowctl_stream never occur; receive-window blocking
// is attributed as flowctl_conn.
func (c *Conn) classify() profile.State {
	if !c.connected {
		return profile.StateHandshake
	}
	if c.cc.State() == cc.StateRecovery {
		return profile.StateRecovery
	}
	if len(c.retransQ) > 0 || c.sndNxt < c.writeLen {
		if len(c.retransQ) == 0 && c.sndNxt >= c.sndUna+c.peerWnd {
			return profile.StateFlowCtlConn
		}
		if !c.cc.CanSend(c.pipe()) {
			return profile.StateCwndLimited
		}
		return profile.StateTransfer
	}
	if c.sb.len() > 0 {
		// Idle with segments outstanding: healthy ack-clocking, unless
		// the TLP/RTO ladder has fired and we are waiting on probe
		// timers (flags reset as soon as an ack advances sndUna).
		if c.rtoCount > 0 || c.tlpFired {
			return profile.StateRTOWait
		}
		return profile.StateTransfer
	}
	return profile.StateAppLimited
}

func (c *Conn) transmit(seq, end uint64, rexmit bool) {
	now := c.sim.Now()
	ss := c.getSentSeg()
	ss.seq, ss.end = seq, end
	ss.sendIdx = c.nextSendIdx
	ss.timeSent = now
	ss.rexmit = rexmit
	ss.fackBase = c.highestSacked()
	c.nextSendIdx++
	if i, ok := c.sb.find(seq); ok {
		live := c.sb.live()
		old := live[i]
		if old.end == end {
			ss.rexmit = true
		}
		c.outBytes -= int(old.end - old.seq)
		c.putSentSeg(old)
		live[i] = ss
	} else {
		c.sb.insert(i, ss)
	}
	c.outBytes += int(end - seq)
	c.SampleInFlight(c.outBytes)
	c.cc.OnPacketSent(now, ss.sendIdx, int(end-seq))
	c.cfg.Tracer.PacketSent(now, seq, int(end-seq), 0)
	seg := getSegment()
	seg.ACK = true
	seg.Seq = seq
	seg.Length = int(end - seq)
	c.fillAckFields(seg)
	c.sendSegment(seg)
	c.clearAckPending() // data segments piggyback the ack
}

func (c *Conn) retransmitRange(r ranges.Range) {
	mss := uint64(wire.TCPMSS)
	for seq := r.Start; seq < r.End; {
		end := seq + mss
		if end > r.End {
			end = r.End
		}
		c.transmit(seq, end, true)
		seq = end
	}
}

// fillAckFields stamps the ack/window/SACK/timestamp fields every
// outgoing segment carries.
func (c *Conn) fillAckFields(seg *wire.TCPSegment) {
	seg.AckNum = c.rcvNxt
	seg.Window = c.advertisedWindow()
	seg.TSVal = wire.TCPTimestampNow(c.sim.Now())
	seg.TSEcr = c.lastTSVal
	if c.pendingDSACK != nil {
		seg.DSACK = c.pendingDSACK
		c.pendingDSACK = nil
	}
	c.sackScratch = c.received.AppendAbove(c.sackScratch[:0], c.rcvNxt)
	blocks := c.sackScratch
	// Most recent blocks first would be ideal; report up to 3.
	if len(blocks) > 3 {
		blocks = blocks[len(blocks)-3:]
	}
	for _, b := range blocks {
		seg.SACK = append(seg.SACK, wire.SACKBlock{Start: b.Start, End: b.End})
	}
}

func (c *Conn) advertisedWindow() uint64 {
	buffered := c.rcvNxt - c.consumed // received but not yet consumed
	buf := uint64(c.cfg.RecvBuffer)
	if buffered >= buf {
		return 0
	}
	return buf - buffered
}

func (c *Conn) sendSegment(seg *wire.TCPSegment) {
	w := wrapPool.Get().(*segment)
	w.port, w.seg = c.port, seg
	npkt := netem.NewPacket(c.e.Addr(), c.remote, seg.WireSize(), w)
	if c.cfg.WireEncode {
		buf := netem.GetBuf()
		buf.B = seg.AppendTo(buf.B)
		npkt.Wire = buf
	}
	c.e.Net.Send(npkt)
}

// --- Loss timers: TLP (Linux >= 3.10) then RTO ----------------------------

func (c *Conn) armRTO() {
	// Arm while anything is outstanding or still queued for
	// retransmission (a pending retransmission with an empty pipe must
	// still be driven by the timer).
	if c.Closed() || (c.sb.len() == 0 && len(c.retransQ) == 0) {
		c.rtoTimer.Stop()
		return
	}
	if !c.tlpFired && c.rtoCount == 0 {
		// Probe timeout: retransmit the tail to elicit SACK evidence
		// instead of waiting out a full RTO.
		c.rtoTimer = c.sim.Reschedule(c.rtoTimer, c.PTO(initialRTT), c.onTLPFn)
		return
	}
	c.rtoTimer = c.sim.Reschedule(c.rtoTimer, c.RTODelay(initialRTT, c.rtoCount), c.onRTOFn)
}

// onTLP sends a tail loss probe: the highest outstanding segment is
// retransmitted so the receiver's SACK/DSACK response exposes tail
// losses to fast recovery.
func (c *Conn) onTLP() {
	if c.Closed() {
		return
	}
	live := c.sb.live()
	if len(live) == 0 {
		// Nothing in flight: push queued retransmissions instead.
		c.maybeSend()
		c.armRTO()
		return
	}
	c.tlpFired = true
	c.cfg.Tracer.TLPFired(c.sim.Now())
	c.cc.OnTLP(c.sim.Now())
	tail := live[len(live)-1] // the highest outstanding segment
	c.tlpProbeSeq = tail.seq
	c.tlpProbeSet = true
	c.transmit(tail.seq, tail.end, true)
	c.armRTO()
}

func (c *Conn) onRTO() {
	if c.Closed() || (c.sb.len() == 0 && len(c.retransQ) == 0) {
		return
	}
	c.rtoCount++
	if c.rtoCount > transport.MaxRTOs {
		// The peer is gone: tear down instead of retrying forever.
		c.Abort(trace.ReasonRTOExhausted)
		return
	}
	c.lastRTOAt = c.sim.Now()
	c.cfg.Tracer.RTOFired(c.sim.Now())
	c.cc.OnRTO(c.sim.Now())
	// Mark every outstanding non-SACKed segment lost and retransmit in
	// sequence order, clocked by the post-RTO window (Linux behaviour).
	live, kept := c.sb.live(), 0
	var toResend []ranges.Range
	for _, ss := range live {
		if c.sacked.ContainsRange(ss.seq, ss.end) {
			live[kept] = ss
			kept++
			continue
		}
		c.untrack(ss)
		toResend = append(toResend, ranges.Range{Start: ss.seq, End: ss.end})
		c.putSentSeg(ss)
	}
	c.sb.cut(kept, len(live))
	c.retransQ = append(toResend, c.retransQ...)
	c.maybeSend()
	c.armRTO()
}
