package quic

import (
	"fmt"
	"slices"
	"time"

	"quiclab/internal/sim"
	"quiclab/internal/wire"
)

// checkSender verifies the sender's bookkeeping against a fresh count of
// what it summarises: bytes in flight and the live count against the ring's
// slots, every live record inside [base, nextPN) and in its own slot, the
// spurious watch list ascending without repeats, the stream-demand counts
// and flags against a walk over every stream, the rotation holding
// exactly the streams that may still send, and the ack frame the
// connection would send now (checkAckFrame).
func (c *Conn) checkSender() error {
	r := &c.sent
	if n := len(r.slots); n&(n-1) != 0 {
		return fmt.Errorf("ring has %d slots, not a power of two", n)
	}
	live, bytes := 0, 0
	for i := range r.slots {
		sp := &r.slots[i]
		if !sp.live {
			if sp.size != 0 || sp.inline || sp.head() != (wire.StreamFrame{}) || len(sp.more) != 0 {
				return fmt.Errorf("empty slot %d holds size %d, inline frame %v, %d more frames", i, sp.size, sp.inline, len(sp.more))
			}
			continue
		}
		live++
		bytes += sp.size
		if !sp.inline && len(sp.more) == 0 {
			return fmt.Errorf("live pn %d holds no frame", sp.pn)
		}
		if sp.pn < r.base || sp.pn >= r.end || sp.pn >= c.nextPN {
			return fmt.Errorf("live pn %d outside [base %d, end %d) or not below nextPN %d", sp.pn, r.base, r.end, c.nextPN)
		}
		if r.slot(sp.pn) != sp {
			return fmt.Errorf("pn %d sits in slot %d, not its own", sp.pn, i)
		}
	}
	if live != r.live {
		return fmt.Errorf("ring.live = %d, %d slots are live", r.live, live)
	}
	if bytes != c.inFlight {
		return fmt.Errorf("inFlight = %d, Σ size over %d live slots = %d", c.inFlight, live, bytes)
	}
	if live > 0 && !r.slot(r.base).live {
		return fmt.Errorf("base %d is an empty slot with %d records live", r.base, live)
	}
	for i := 1; i < len(c.spurious); i++ {
		if c.spurious[i-1] >= c.spurious[i] {
			return fmt.Errorf("spurious[%d] = %d after %d: not strictly ascending", i, c.spurious[i], c.spurious[i-1])
		}
	}
	if err := c.checkAckFrame(); err != nil {
		return err
	}
	pending, windowOpen, unfinished := 0, 0, 0
	for id, s := range c.streams {
		p := s.sendPending()
		w := p && s.sendWindow() > 0
		if s.pending != p || s.windowOpen != w {
			return fmt.Errorf("stream %d counted as pending=%v windowOpen=%v, is %v %v", id, s.pending, s.windowOpen, p, w)
		}
		pending += boolToInt(p)
		windowOpen += boolToInt(w)
		unfinished += boolToInt(!s.finSent)
	}
	inRot := make(map[*Stream]bool, len(c.rot))
	for i, s := range c.rot {
		if s.finSent || c.streams[s.id] != s || inRot[s] {
			return fmt.Errorf("rot[%d] (stream %d) has sent its fin, is not this connection's, or is there twice", i, s.id)
		}
		inRot[s] = true
	}
	if pending != c.nPending || windowOpen != c.nWindowOpen {
		return fmt.Errorf("nPending = %d, nWindowOpen = %d; a walk counts %d, %d", c.nPending, c.nWindowOpen, pending, windowOpen)
	}
	if unfinished != len(c.rot) {
		return fmt.Errorf("rotation holds %d streams, %d have not sent their fin", len(c.rot), unfinished)
	}
	if c.rrCursor < -1 || c.rrCursor >= max(len(c.rot), 1) {
		return fmt.Errorf("rrCursor = %d with %d streams in the rotation", c.rrCursor, len(c.rot))
	}
	return nil
}

// checkAckFrame builds the ack frame the connection would send now, if it
// has received anything, and checks it against the shape onAckFrame's
// cursor needs (ValidateRanges) and against the frame the builder made
// when it copied every range: all of them, reversed, cut to maxAckRanges.
func (c *Conn) checkAckFrame() error {
	if c.rcvdPNs.NumRanges() == 0 {
		return nil
	}
	af := c.buildAckFrame()
	defer releaseAckFrame(af)
	if err := af.ValidateRanges(); err != nil {
		return fmt.Errorf("ack frame %v: %v", af.Ranges, err)
	}
	all := c.rcvdPNs.Ranges()
	var want []wire.AckRange
	for i := len(all) - 1; i >= 0 && len(want) < maxAckRanges; i-- {
		want = append(want, wire.AckRange{Smallest: all[i].Start, Largest: all[i].End - 1})
	}
	if !slices.Equal(af.Ranges, want) {
		return fmt.Errorf("ack frame ranges %v, the whole-set copy gives %v", af.Ranges, want)
	}
	return nil
}

// checkedSim is the testbed's simulator, run one event at a time with
// every connection's sender invariants checked after each: after every
// processed packet and every alarm of every test that uses the testbed.
type checkedSim struct {
	*sim.Simulator
	tb *testbed
}

func (s checkedSim) RunUntil(deadline time.Duration) {
	reached := false
	s.ScheduleAt(deadline, func() { reached = true })
	for !reached && s.Step() {
		s.tb.checkSenders()
	}
}

func (s checkedSim) Run() {
	for s.Step() {
		s.tb.checkSenders()
	}
}

// checkSenders panics on the first broken invariant: the stack then names
// the event that broke it.
func (tb *testbed) checkSenders() {
	check := func(c *Conn) {
		if err := c.checkSender(); err != nil {
			panic(fmt.Sprintf("t=%v conn %d: %v", tb.sim.Now(), c.id, err))
		}
	}
	for _, e := range []*Endpoint{tb.client, tb.server} {
		for _, c := range e.Conns {
			check(c)
		}
	}
	for _, c := range tb.accepted { // closed ones too
		check(c)
	}
}
