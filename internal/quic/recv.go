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
	c.stats.PacketsReceived++
	if tr := c.cfg.Tracer; tr.Detailed() {
		tr.PacketReceived(now, p.pn, p.size, firstStreamID(p.frames))
	}
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
	// The packet's flight ends here: every frame has been consumed (frame
	// pointers that live on — stream/crypto — are independent of the
	// envelope). Recycle it before the send path possibly reuses it.
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

// buildAckFrame builds the QUIC ack: ranges over every received packet
// number plus receive timestamps — the representation that eliminates
// the ACK ambiguity the paper contrasts with TCP.
func (c *Conn) buildAckFrame() *wire.AckFrame {
	c.rangeScratch = c.rcvdPNs.AppendRanges(c.rangeScratch[:0])
	rs := c.rangeScratch
	af := getAckFrame()
	ackRanges := af.Ranges
	for i := len(rs) - 1; i >= 0; i-- {
		ackRanges = append(ackRanges, wire.AckRange{Smallest: rs[i].Start, Largest: rs[i].End - 1})
	}
	if len(ackRanges) > maxAckRanges {
		ackRanges = ackRanges[:maxAckRanges]
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

func (c *Conn) onAckFrame(f *wire.AckFrame) {
	now := c.sim.Now()
	c.compactSentOrder()

	// RTT sample from the largest newly acked packet, corrected by the
	// peer-reported ack delay (precise, unambiguous: retransmissions have
	// new packet numbers).
	if sp, ok := c.sent[f.LargestAcked]; ok {
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
	// Walk the set in packet-number order — map iteration order would
	// leak into the trace event stream and break run determinism.
	c.spuriousScratch = c.spuriousScratch[:0]
	for pn := range c.spurious {
		c.spuriousScratch = append(c.spuriousScratch, pn)
	}
	slices.Sort(c.spuriousScratch)
	for _, pn := range c.spuriousScratch {
		if f.Acked(pn) {
			c.stats.FalseLosses++
			c.cfg.Tracer.Count("false_loss")
			c.cfg.Tracer.SpuriousLoss(now, pn)
			delete(c.spurious, pn)
			if c.cfg.AdaptiveNACK {
				next := c.nackThreshold + c.nackThreshold/2 + 1
				if next > 128 {
					next = 128
				}
				c.nackThreshold = next
			}
		} else if pn < f.LargestAcked && len(c.spurious) > 4096 {
			delete(c.spurious, pn) // bound state
		}
	}

	newlyAcked := false
	lost := c.lostScratch[:0]
	for _, pn := range c.sentOrder {
		if pn > f.LargestAcked {
			break
		}
		sp, ok := c.sent[pn]
		if !ok {
			continue
		}
		if f.Acked(pn) {
			delete(c.sent, pn)
			c.inFlight -= sp.size
			c.SampleInFlight(c.inFlight)
			newlyAcked = true
			c.cfg.Tracer.PacketAcked(now, pn, sp.size)
			rtt := time.Duration(0)
			if pn == f.LargestAcked {
				rtt = now - sp.timeSent - f.AckDelay
			}
			c.cc.OnAck(now, sp.sendIndex, sp.size, rtt, c.inFlight)
			c.putSentPacket(sp)
		} else if c.cfg.TimeLossDetection {
			// RACK-style: lost only when a later packet was delivered AND
			// a reordering window (1.25x srtt) has elapsed since this
			// packet's send time.
			srtt := c.SRTTOr(initialRTT)
			reoWindow := srtt + srtt/4
			if now-sp.timeSent > reoWindow {
				lost = append(lost, sp)
			} else if !c.lossTimer.Pending() {
				// Re-check when the window expires.
				c.setLossAlarm()
			}
		} else {
			// NACK: the peer saw packets beyond this one. gQUIC's fixed
			// threshold is what misfires under deep reordering (Fig 10).
			sp.nacks++
			if sp.nacks >= c.nackThreshold {
				lost = append(lost, sp)
			}
		}
	}
	for i, sp := range lost {
		c.declareLost(sp)
		lost[i] = nil
	}
	c.lostScratch = lost[:0]
	if newlyAcked {
		c.tlpCount = 0
		c.rtoCount = 0
		c.probeCredit = 0
		c.leastUnacked = c.minUnackedPN()
		c.setLossAlarm()
	}
	c.maybeSend()
}

func (c *Conn) declareLost(sp *sentPacket) {
	if _, ok := c.sent[sp.pn]; !ok {
		return
	}
	delete(c.sent, sp.pn)
	c.inFlight -= sp.size
	c.SampleInFlight(c.inFlight)
	c.stats.DeclaredLost++
	c.stats.Retransmits++
	c.retransQ = append(c.retransQ, sp.frames...)
	c.cc.OnLoss(c.sim.Now(), sp.sendIndex, sp.size, c.inFlight)
	c.cfg.Tracer.Count("declared_lost")
	c.cfg.Tracer.PacketLost(c.sim.Now(), sp.pn, sp.size)
	// Spurious-loss detection: if the peer's future acks cover this pn,
	// the "loss" was reordering. Track pn for accounting.
	c.watchSpurious(sp.pn)
	c.putSentPacket(sp)
}

// spuriousWatch tracks recently declared-lost pns; acks covering them
// later are counted as false losses (the paper's reordering root cause).
func (c *Conn) watchSpurious(pn uint64) {
	if c.spurious == nil {
		c.spurious = make(map[uint64]bool)
	}
	c.spurious[pn] = true
}

func (c *Conn) minUnackedPN() uint64 {
	c.compactSentOrder()
	if len(c.sentOrder) == 0 {
		return c.nextPN
	}
	return c.sentOrder[0]
}

func (c *Conn) compactSentOrder() {
	for len(c.sentOrder) > 0 {
		if _, ok := c.sent[c.sentOrder[0]]; ok {
			break
		}
		c.sentOrder = c.sentOrder[1:]
	}
}

// --- Loss alarms: TLP then RTO ------------------------------------------

func (c *Conn) setLossAlarm() {
	c.lossTimer.Stop()
	if c.Closed() || len(c.sent) == 0 {
		return
	}
	// Two tail loss probes, then RTOs with exponential backoff; a peer
	// silent through transport.MaxRTOs consecutive timeouts gets the
	// connection torn down (onLossAlarm).
	delay := c.PTO(initialRTT)
	if c.tlpCount >= maxTLPProbes {
		delay = c.RTODelay(initialRTT, c.rtoCount)
	}
	c.lossTimer = c.sim.Schedule(delay, c.lossAlarmFn)
}

func (c *Conn) onLossAlarm() {
	if c.Closed() || len(c.sent) == 0 {
		return
	}
	now := c.sim.Now()
	if c.tlpCount < maxTLPProbes {
		// Tail loss probe: retransmit the oldest unacked packet's frames
		// to force an ack.
		c.tlpCount++
		c.stats.TLPProbes++
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
		c.stats.RTOs++
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
	c.compactSentOrder()
	count := 0
	for _, pn := range c.sentOrder {
		if count >= n {
			break
		}
		sp, ok := c.sent[pn]
		if !ok {
			continue
		}
		delete(c.sent, pn)
		c.inFlight -= sp.size
		c.SampleInFlight(c.inFlight)
		c.stats.Retransmits++
		if len(sp.frames) > 0 {
			c.retransQ = append(c.retransQ, sp.frames...)
		} else {
			c.retransQ = append(c.retransQ, &wire.PingFrame{})
		}
		c.watchSpurious(sp.pn)
		c.putSentPacket(sp)
		count++
	}
}
