package quic

import (
	"slices"
	"time"

	"quiclab/internal/trace"
	"quiclab/internal/transport"
	"quiclab/internal/wire"
)

// procDelay is the userspace cost of processing one packet: the base
// per-packet cost plus per-active-stream bookkeeping (see
// Config.StreamTouchDelay). When this exceeds the packet inter-arrival
// time, a processing backlog builds and — since acks are generated after
// processing — the peer's RTT samples inflate.
func (c *Conn) procDelay() time.Duration {
	d := c.cfg.ProcDelay
	if c.cfg.StreamTouchDelay > 0 {
		d += time.Duration(c.activeStreams) * c.cfg.StreamTouchDelay
	}
	return d
}

// process handles one received packet, after the processing queue has
// charged it procDelay (c.rx, see transport.ProcQueue).
func (c *Conn) process(p *packet) {
	now := c.sim.Now()
	c.Touch(now)
	c.cfg.Tracer.PacketReceived(now, p.pn, p.size, firstStreamID(p.frames))
	c.rcvdPNs.Add(p.pn, p.pn+1)
	if p.pn > c.largestRcvd {
		c.largestRcvd = p.pn
		c.largestRcvdTime = now
	}
	retransmittable := false
	for _, f := range p.frames {
		switch f := f.(type) {
		case *wire.AckFrame:
			c.onAckFrame(f)
		case *wire.StopWaitingFrame:
			c.rcvdPNs.RemoveBelow(f.LeastUnacked)
		case *wire.CryptoFrame:
			c.handleCrypto(f)
			retransmittable = true
		case *wire.StreamFrame:
			c.onStreamFrame(f)
			retransmittable = true
		case *wire.WindowUpdateFrame:
			c.onWindowUpdate(f)
			retransmittable = true
		case *wire.BlockedFrame:
			retransmittable = true
		case *wire.PingFrame:
			retransmittable = true
		case *wire.ConnectionCloseFrame:
			// Early return without releasing: teardown is rare enough to
			// leave the packet to the garbage collector.
			c.Abort(trace.ReasonPeerClosed)
			return
		}
	}
	if retransmittable {
		c.ackPending++
		c.sinceLastAck++
		c.scheduleAck()
	}
	// The packet's flight ends here: every frame has been consumed (the
	// handlers copy out what they keep). Recycle it before the send path
	// possibly reuses it.
	releasePacket(p)
	// New acks / window updates may unblock the send path.
	c.maybeSend()
}

// scheduleAck applies the ack policy: immediate ack every ackEveryN
// retransmittable packets, else a delayed-ack alarm.
func (c *Conn) scheduleAck() {
	if c.ackPending >= ackEveryN {
		return // maybeSend (called by process) flushes it
	}
	if !c.ackTimer.Pending() {
		c.ackTimer = c.sim.Schedule(ackDelayLimit, c.ackFlushFn)
	}
}

// flushDelayedAck is the delayed-ack alarm body (bound once at newConn).
func (c *Conn) flushDelayedAck() {
	if c.ackPending > 0 {
		c.maybeSend()
		if c.ackPending > 0 {
			c.buildAndSendControlOnly()
		}
	}
}

// buildAckFrame builds the QUIC ack: ranges over the newest received
// packet numbers (at most maxAckRanges of them, highest first) plus
// receive timestamps — the representation that eliminates the ACK
// ambiguity the paper contrasts with TCP. rcvdPNs grows for the life of
// the connection (no STOP_WAITING is sent), so only the ranges the frame
// carries are read.
func (c *Conn) buildAckFrame() *wire.AckFrame {
	c.rangeScratch = c.rcvdPNs.AppendLast(c.rangeScratch[:0], maxAckRanges)
	rs := c.rangeScratch
	af := getAckFrame()
	ackRanges := af.Ranges
	for i := len(rs) - 1; i >= 0; i-- {
		ackRanges = append(ackRanges, wire.AckRange{Smallest: rs[i].Start, Largest: rs[i].End - 1})
	}
	nts := c.sinceLastAck
	if nts > 255 {
		nts = 255
	}
	largest := c.largestRcvd
	if len(ackRanges) > 0 {
		largest = ackRanges[0].Largest
	}
	af.LargestAcked = largest
	af.AckDelay = c.sim.Now() - c.largestRcvdTime
	af.Ranges = ackRanges
	af.ReceiveTimestamps = nts
	return af
}

// --- Sender-side ack processing and loss detection ----------------------

// ackCursor tells which packet numbers an ack frame covers, asked in
// ascending order: it walks the frame's ranges from the lowest up, so
// asking about n packet numbers costs O(n + ranges) where one scan of the
// ranges per question cost O(n × ranges). The ranges must be strictly
// descending and disjoint, as buildAckFrame makes them.
type ackCursor struct {
	ranges []wire.AckRange
	j      int // the lowest range whose Largest may still be ≥ the next pn
}

func newAckCursor(f *wire.AckFrame) ackCursor {
	return ackCursor{f.Ranges, len(f.Ranges) - 1}
}

// covers reports whether pn lies in one of the ranges; pn must be no lower
// than the packet number asked about last.
func (a *ackCursor) covers(pn uint64) bool {
	for a.j >= 0 && a.ranges[a.j].Largest < pn {
		a.j--
	}
	return a.j >= 0 && a.ranges[a.j].Smallest <= pn
}

// onAckFrame processes an ack frame shaped as buildAckFrame shapes one:
// ranges strictly descending and disjoint, none above LargestAcked.
func (c *Conn) onAckFrame(f *wire.AckFrame) {
	now := c.sim.Now()

	// RTT sample from the largest newly acked packet, corrected by the
	// peer-reported ack delay (precise, unambiguous: retransmissions have
	// new packet numbers).
	if sp := c.sent.get(f.LargestAcked); sp != nil {
		rtt := now - sp.timeSent - f.AckDelay
		if rtt > 0 {
			if c.minRTT < 0 || rtt < c.minRTT {
				c.minRTT = rtt
			}
			c.UpdateRTT(now, rtt)
			c.cfg.Tracer.RTTSample(now, rtt, c.SRTT(), c.minRTT, c.RTTVar())
		}
	}

	// False-loss accounting: a declared-lost packet later covered by an
	// ack was reordered, not lost. With AdaptiveNACK the threshold is
	// raised on each such event (the RR-TCP idea applied to QUIC).
	// The list is in packet-number order, so the trace sees the events in
	// one order on every run; it is filtered in place, and bounded: while
	// more than maxWatched are watched (those kept plus those still to
	// visit), the ones this ack has passed over are dropped. No range
	// reaches below lowest, so the entries before start cannot be acked and
	// all lie below LargestAcked: the bound drops the oldest of them and
	// the rest stay where they are. Only the entries from start on — about
	// as many as the frame has gaps — are visited.
	lowest := f.LargestAcked
	if n := len(f.Ranges); n > 0 {
		lowest = f.Ranges[n-1].Smallest
	}
	watched := c.spurious
	start, _ := slices.BinarySearch(watched, lowest)
	w := start // entries kept so far
	if drop := min(start, len(watched)-maxWatched); drop > 0 {
		w = copy(watched, watched[drop:start])
	}
	cur := newAckCursor(f)
	for i := start; i < len(watched); i++ {
		pn := watched[i]
		if cur.covers(pn) {
			c.cfg.Tracer.FalseLoss(now, pn)
			if c.cfg.AdaptiveNACK {
				c.nackThreshold = min(c.nackThreshold+c.nackThreshold/2+1, 128)
			}
		} else if pn >= f.LargestAcked || w+len(watched)-i <= maxWatched {
			watched[w] = pn
			w++
		}
	}
	c.spurious = watched[:w]

	newlyAcked := false
	lost := c.lostScratch[:0]
	cur = newAckCursor(f)
	for pn := c.sent.base; pn < c.sent.end && pn <= f.LargestAcked; pn++ {
		sp := c.sent.get(pn)
		if sp == nil {
			continue
		}
		if cur.covers(pn) {
			c.inFlight -= sp.size
			c.SampleInFlight(c.inFlight)
			newlyAcked = true
			c.cfg.Tracer.PacketAcked(now, pn, sp.size)
			rtt := time.Duration(0)
			if pn == f.LargestAcked {
				rtt = now - sp.timeSent - f.AckDelay
			}
			c.cc.OnAck(now, pn, sp.size, rtt, c.inFlight)
			c.sent.remove(sp)
		} else if c.cfg.TimeLossDetection {
			// RACK-style: lost only when a later packet was delivered AND
			// a reordering window (1.25x srtt) has elapsed since this
			// packet's send time.
			srtt := c.SRTTOr(initialRTT)
			reoWindow := srtt + srtt/4
			if now-sp.timeSent > reoWindow {
				lost = append(lost, pn)
			} else if !c.lossTimer.Pending() {
				// Re-check when the window expires.
				c.setLossAlarm()
			}
		} else {
			// NACK: the peer saw packets beyond this one. gQUIC's fixed
			// threshold is what misfires under deep reordering (Fig 10).
			sp.nacks++
			if int(sp.nacks) >= c.nackThreshold {
				lost = append(lost, pn)
			}
		}
	}
	for _, pn := range lost {
		c.declareLost(pn)
	}
	c.lostScratch = lost[:0]
	if newlyAcked {
		c.tlpCount = 0
		c.rtoCount = 0
		c.probeCredit = 0
		c.setLossAlarm()
	}
	c.maybeSend()
}

func (c *Conn) declareLost(pn uint64) {
	sp := c.sent.get(pn)
	c.inFlight -= sp.size
	c.SampleInFlight(c.inFlight)
	c.retransQ = sp.appendFrames(c.retransQ)
	c.cc.OnLoss(c.sim.Now(), pn, sp.size, c.inFlight)
	c.cfg.Tracer.PacketLost(c.sim.Now(), pn, sp.size)
	c.watchSpurious(pn)
	c.sent.remove(sp)
}

// watchSpurious remembers a packet number just given up on: if the peer's
// later acks cover it, the "loss" was reordering (the paper's root cause)
// and is counted as a false loss. Packets are given up on oldest first, so
// the place that keeps the list ascending is at or near its end.
func (c *Conn) watchSpurious(pn uint64) {
	i := len(c.spurious)
	for i > 0 && c.spurious[i-1] > pn {
		i--
	}
	c.spurious = slices.Insert(c.spurious, i, pn)
}

// --- Loss alarms: TLP then RTO ------------------------------------------

func (c *Conn) setLossAlarm() {
	if c.Closed() || c.sent.live == 0 {
		c.lossTimer.Stop()
		return
	}
	// Two tail loss probes, then RTOs with exponential backoff; a peer
	// silent through transport.MaxRTOs consecutive timeouts gets the
	// connection torn down (onLossAlarm).
	delay := c.PTO(initialRTT)
	if c.tlpCount >= maxTLPProbes {
		delay = c.RTODelay(initialRTT, c.rtoCount)
	}
	c.lossTimer = c.sim.Reschedule(c.lossTimer, delay, c.lossAlarmFn)
}

func (c *Conn) onLossAlarm() {
	if c.Closed() || c.sent.live == 0 {
		return
	}
	now := c.sim.Now()
	if c.tlpCount < maxTLPProbes {
		// Tail loss probe: retransmit the oldest unacked packet's frames
		// to force an ack.
		c.tlpCount++
		c.cfg.Tracer.TLPFired(now)
		c.cc.OnTLP(now)
		c.retransmitOldest(1)
		c.probeCredit = 1
	} else {
		c.rtoCount++
		if c.rtoCount > transport.MaxRTOs {
			// The peer is gone: tear down instead of retrying forever.
			c.Abort(trace.ReasonRTOExhausted)
			return
		}
		c.cfg.Tracer.RTOFired(now)
		c.cc.OnRTO(now)
		c.retransmitOldest(2)
		c.probeCredit = 2
	}
	c.setLossAlarm()
	c.maybeSend()
}

// retransmitOldest requeues the frames of up to n oldest unacked packets
// (treating the originals as lost for bookkeeping, with spurious
// detection if they later arrive).
func (c *Conn) retransmitOldest(n int) {
	for pn := c.sent.base; n > 0 && c.sent.live > 0; pn++ {
		sp := c.sent.get(pn)
		if sp == nil {
			continue
		}
		c.inFlight -= sp.size
		c.SampleInFlight(c.inFlight)
		c.retransQ = sp.appendFrames(c.retransQ)
		c.watchSpurious(pn)
		c.sent.remove(sp)
		n--
	}
}
