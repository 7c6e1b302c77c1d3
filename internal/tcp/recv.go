package tcp

import (
	"slices"
	"time"

	"quiclab/internal/ranges"
	"quiclab/internal/transport"
	"quiclab/internal/wire"
)

// process handles one received segment, after the processing queue has
// charged it Config.ProcDelay (c.rx, see transport.ProcQueue; small for
// TCP: kernel-space processing).
func (c *Conn) process(seg *wire.TCPSegment) {
	c.Touch(c.sim.Now())
	c.cfg.Tracer.PacketReceived(c.sim.Now(), seg.Seq, seg.Length, 0)
	if seg.SYN {
		c.onSYN(seg)
		releaseSegment(seg)
		return
	}
	if !c.tcpEstablished {
		releaseSegment(seg)
		return
	}
	c.onAckInfo(seg)
	if seg.Length > 0 {
		c.onData(seg)
	}
	// The segment's flight ends here: every field has been copied out
	// (SACK blocks into the scoreboard, ack fields into scalars).
	releaseSegment(seg)
	c.maybeSend()
}

// --- Receiver side -------------------------------------------------------

func (c *Conn) onData(seg *wire.TCPSegment) {
	start, end := seg.Seq, seg.Seq+uint64(seg.Length)
	c.lastTSVal = seg.TSVal
	if end <= c.rcvNxt || !c.received.Add(maxU64(start, c.rcvNxt), end) {
		// Complete duplicate: report DSACK so the sender can detect the
		// spurious retransmission (RFC 2883 / RR-TCP adaptation).
		d := wire.SACKBlock{Start: start, End: end}
		c.pendingDSACK = &d
		c.ackNow = true
	} else {
		old := c.rcvNxt
		c.rcvNxt = c.received.ContiguousEnd(c.rcvNxt)
		c.received.RemoveBelow(c.rcvNxt)
		if start > old {
			// Out-of-order arrival: immediate (duplicate) ack with SACK.
			c.ackNow = true
		}
		if c.rcvNxt > old {
			// The app consumes in-order bytes as they are processed.
			c.consumed = c.rcvNxt
			c.deliverApp(old, c.rcvNxt)
		}
	}
	c.ackPending++
	if !c.ackNow && c.ackPending < ackEveryN {
		if !c.ackTimer.Pending() {
			c.ackTimer = c.sim.Schedule(delayedAckTimeout, c.flushAckFn)
		}
	}
}

// deliverApp routes newly in-order bytes: handshake bytes feed the TLS
// state machine, the rest go to the application callback.
func (c *Conn) deliverApp(from, to uint64) {
	hs := c.peerHSBytes
	if from < hs {
		c.handleHSProgress()
		if to <= hs {
			return
		}
		from = hs
	}
	if c.OnData != nil {
		c.OnData(int(to - from))
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// flushAck emits a pure ack if one is still pending (data segments
// piggyback ack fields and clear the pending state via transmit).
func (c *Conn) flushAck() {
	if c.Closed() || (c.ackPending == 0 && !c.ackNow) {
		return
	}
	seg := getSegment()
	seg.ACK = true
	c.fillAckFields(seg)
	c.sendSegment(seg)
	c.clearAckPending()
}

func (c *Conn) clearAckPending() {
	c.ackPending = 0
	c.ackNow = false
	c.ackTimer.Stop()
}

// --- Sender-side ack processing -------------------------------------------

func (c *Conn) onAckInfo(seg *wire.TCPSegment) {
	c.peerWnd = seg.Window

	if seg.DSACK != nil && !c.cfg.DisableDSACK {
		c.onDSACK(*seg.DSACK)
	}
	for _, b := range seg.SACK {
		if b.End > c.sndUna {
			c.sacked.Add(maxU64(b.Start, c.sndUna), b.End)
		}
	}

	if dbgAckRecv != nil && !c.isClient {
		dbgAckRecv(c, seg)
	}
	if seg.AckNum > c.sndUna {
		// Cumulative advance: ack all fully-covered segments.
		c.ackSegmentsBelow(seg.AckNum, seg.TSEcr)
		c.sndUna = seg.AckNum
		c.sacked.RemoveBelow(c.sndUna)
		c.dupAcks = 0
		c.rtoCount = 0
		c.tlpFired = false
	} else if seg.Length == 0 && seg.AckNum == c.sndUna && c.sndNxt > c.sndUna && !seg.SYN {
		c.dupAcks++
	}

	if c.flowBlocked && c.sndNxt < c.sndUna+c.peerWnd {
		c.flowBlocked = false
		c.cfg.Tracer.FlowUnblocked(c.sim.Now(), 0)
	}

	// Segments fully covered by SACK count as delivered for cc (Linux
	// does the same for PRR/rate bookkeeping).
	c.ackSackedSegments()
	c.detectLosses()
	c.sampleFlow()
}

// ackSegmentsBelow removes and cc-acks every tracked segment whose end is
// <= ackNum, sampling RTT from the timestamp echo (millisecond ticks).
func (c *Conn) ackSegmentsBelow(ackNum uint64, tsecr uint32) {
	now := c.sim.Now()
	sample := now - time.Duration(tsecr)*time.Millisecond
	// Round to the 1ms timestamp granularity, like a real stack sees.
	sample = sample / time.Millisecond * time.Millisecond
	sampled := false
	// Everything ackNum covers starts below it, so a cumulative ack pops a
	// prefix. Entries may overlap (a clipped retransmission starts inside
	// the segment it was cut from, and a partly acked segment stays
	// tracked), so test each entry's end and keep survivors.
	live, kept, i := c.sb.live(), 0, 0
	for ; i < len(live) && live[i].seq < ackNum; i++ {
		ss := live[i]
		if ss.end > ackNum {
			live[kept] = ss
			kept++
			continue
		}
		rtt := time.Duration(0)
		if !ss.rexmit && !sampled && tsecr > 0 {
			rtt = sample
			sampled = true
			// Timestamp echoes tick in milliseconds (the precision penalty
			// the paper contrasts with QUIC's ack-delay-corrected
			// microsecond samples): a sub-tick sample counts as half a tick.
			c.UpdateRTT(now, max(rtt, time.Millisecond/2))
			// minRTT is 0: the TCP estimator does not track a minimum
			// (millisecond timestamp echoes, Karn-excluded rexmits).
			c.cfg.Tracer.RTTSample(now, rtt, c.SRTT(), 0, c.RTTVar())
		}
		c.untrack(ss)
		c.cfg.Tracer.PacketAcked(now, ss.seq, int(ss.end-ss.seq))
		c.cc.OnAck(now, ss.sendIdx, int(ss.end-ss.seq), rtt, c.pipe())
		c.putSentSeg(ss)
	}
	c.sb.cut(kept, i)
}

// ackSackedSegments cc-acks every tracked segment the SACK scoreboard
// covers. Only entries below highestSacked() can be covered, so a clean
// path walks nothing; the bound (rather than the ack's own new blocks)
// also catches a segment transmitted while already covered, on the next
// ack of any kind.
func (c *Conn) ackSackedSegments() {
	now := c.sim.Now()
	high := c.highestSacked()
	live, kept, i := c.sb.live(), 0, 0
	for ; i < len(live) && live[i].seq < high; i++ {
		ss := live[i]
		if !c.sacked.ContainsRange(ss.seq, ss.end) {
			live[kept] = ss
			kept++
			continue
		}
		c.untrack(ss)
		c.cfg.Tracer.PacketAcked(now, ss.seq, int(ss.end-ss.seq))
		c.cc.OnAck(now, ss.sendIdx, int(ss.end-ss.seq), 0, c.pipe())
		c.putSentSeg(ss)
	}
	c.sb.cut(kept, i)
}

// highestSacked returns the highest SACKed sequence (0 if none).
func (c *Conn) highestSacked() uint64 {
	r, ok := c.sacked.Last()
	if !ok {
		return 0
	}
	return r.End
}

// detectLosses applies SACK/FACK-style loss detection with the adaptive
// dupThresh: a segment is lost when data at least dupThresh segments
// beyond it has been SACKed, or (for the first segment) when dupThresh
// duplicate acks arrive.
func (c *Conn) detectLosses() {
	now := c.sim.Now()
	high := c.highestSacked()
	thresholdBytes := uint64(c.dupThresh) * uint64(wire.TCPMSS)
	lost := c.lostScratch[:0]
	for _, ss := range c.sb.live() {
		if ss.seq >= high {
			break
		}
		// A retransmission is never re-declared lost by SACK evidence
		// (pre-RACK Linux semantics): with a deep retransmission queue,
		// SACK-clocked re-declaration races the retransmission's own
		// delivery and storms the receiver with duplicates. Lost
		// retransmissions are recovered by TLP/RTO instead.
		if ss.rexmit {
			continue
		}
		base := ss.end
		if ss.fackBase > base {
			base = ss.fackBase
		}
		if high >= base+thresholdBytes {
			lost = append(lost, ss)
		}
	}
	// Classic dupack threshold for the head-of-line segment, with early
	// retransmit (RFC 5827): when few segments are outstanding, not
	// enough dupacks can ever arrive, so the threshold shrinks — without
	// this, small-cwnd flows collapse into 200 ms RTOs (which is what
	// Linux avoids too).
	thresh := c.dupThresh
	if out := c.sb.len(); out >= 2 && out < 4 && thresh > out-1 {
		thresh = out - 1
	}
	if c.dupAcks >= thresh {
		if i, ok := c.sb.find(c.sndUna); ok {
			if ss := c.sb.live()[i]; !ss.rexmit && !slices.Contains(lost, ss) {
				lost = append(lost, ss)
			}
		}
		c.dupAcks = 0
	}
	for i, ss := range lost {
		c.declareLost(ss, now)
		lost[i] = nil
	}
	c.lostScratch = lost[:0]
}

func (c *Conn) declareLost(ss *sentSeg, now time.Duration) {
	i, ok := c.sb.find(ss.seq)
	if !ok {
		return
	}
	c.sb.cut(i, i+1)
	c.untrack(ss)
	c.cc.OnLoss(now, ss.sendIdx, int(ss.end-ss.seq), c.pipe())
	c.retransQ = append(c.retransQ, ranges.Range{Start: ss.seq, End: ss.end})
	c.cfg.Tracer.PacketLost(now, ss.seq, int(ss.end-ss.seq))
	c.putSentSeg(ss)
}

// onDSACK handles a receiver report of a duplicate delivery: our
// retransmission was spurious (reordering, not loss). RR-TCP-style, the
// sender raises its duplicate threshold so deeper reordering no longer
// triggers fast retransmit — the adaptation QUIC's fixed NACK threshold
// lacks (paper §5.2, Fig 10).
func (c *Conn) onDSACK(d wire.SACKBlock) {
	c.cfg.Tracer.SpuriousRexmit(c.sim.Now(), d.Start)
	// A DSACK for the last tail-loss probe just means the tail was not
	// lost; it is not reordering evidence (Linux's TLP loss detection
	// makes the same exclusion).
	if c.tlpProbeSet && d.Start <= c.tlpProbeSeq && c.tlpProbeSeq < d.End {
		c.tlpProbeSet = false
		return
	}
	// A DSACK shortly after a timeout signals a spurious RTO (Eifel),
	// not path reordering: raising the duplicate threshold for those
	// would disable fast retransmit entirely under heavy loss. Only
	// DSACKs for fast retransmissions adapt the threshold.
	if c.lastRTOAt > 0 && c.sim.Now()-c.lastRTOAt < 2*c.SRTTOr(initialRTT)+transport.MinRTO {
		return
	}
	c.dupThresh = min(c.dupThresh+c.dupThresh/2+1, maxDupThresh)
}

// dbgAckRecv, when set by tests, observes every ack processed.
var dbgAckRecv func(c *Conn, seg *wire.TCPSegment)
