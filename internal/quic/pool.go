package quic

import (
	"sync"

	"quiclab/internal/transport"
	"quiclab/internal/wire"
)

// Per-packet object recycling, and who owns what. A packet envelope owns
// its frames (packet.items, stream frames by value); it is created by the
// sender and dies on the receiver once process() has consumed it, and it
// recycles through a global pool that keeps the items' and the view's
// capacity. The sender's own state — the sent ring's records and
// retransQ — holds copies of the frames, never a pointer into an
// envelope, so a packet still in flight shares nothing with the sender
// that requeues its frames (retransmitOldest does so on TLP and RTO). The
// rarer frames sit behind a pointer that several holders may share, which
// is safe because none is changed once built. Ack frames ride only in the
// envelope (records and retransQ leave them out), so releasePacket
// recycles them too.
//
// Packets dropped by netem (loss, queue overflow, outage) and packets
// pending in a closed connection's processing queue are simply left to
// the garbage collector — the pools only need the common case.

var packetPool = sync.Pool{New: func() any { return new(packet) }}

func getPacket() *packet {
	p := packetPool.Get().(*packet)
	p.items, p.frames = p.items[:0], p.frames[:0]
	return p
}

// releasePacket returns a fully processed packet to the pool, recycling
// any ack frame it carried. Frame pointers are cleared so the pooled
// envelope does not pin frames that live on in sender-side state.
func releasePacket(p *packet) {
	for _, f := range p.items {
		if af, ok := f.ctl.(*wire.AckFrame); ok {
			releaseAckFrame(af)
		}
	}
	clear(p.items)
	clear(p.frames)
	p.connID, p.pn, p.size = 0, 0, 0
	p.items, p.frames = p.items[:0], p.frames[:0]
	packetPool.Put(p)
}

var ackFramePool = sync.Pool{New: func() any { return new(wire.AckFrame) }}

// getAckFrame returns a zeroed ack frame whose Ranges slice keeps its
// previous capacity, so steady-state ack building allocates nothing.
func getAckFrame() *wire.AckFrame {
	af := ackFramePool.Get().(*wire.AckFrame)
	*af = wire.AckFrame{Ranges: af.Ranges[:0]}
	return af
}

func releaseAckFrame(af *wire.AckFrame) { ackFramePool.Put(af) }

// sentRing holds the loss-detection records of the retransmittable packets
// in flight, the record of packet pn in slot pn mod len(slots). Packet
// numbers are dense and handed out in transmit order, so the ring read from
// base upward is the transmit order, and a lookup is an index. Ack-only
// packets take a packet number and no record: their slots stay empty, as do
// those of packets acked or declared lost, and base advances past empty
// slots as the oldest records die. A record holds its first frame inline and
// a slot keeps the capacity of the rest from one occupant to the next,
// which makes the ring its own free list.
type sentRing struct {
	slots []sentPacket // length a power of two
	base  uint64       // no live record has a lower packet number
	end   uint64       // one past the highest packet number ever added
	live  int
}

const sentRingMin = 32

func (r *sentRing) slot(pn uint64) *sentPacket { return &r.slots[pn&uint64(len(r.slots)-1)] }

// add returns the empty slot for pn, which is above every pn added before,
// doubling the ring until the span from base to pn fits.
func (r *sentRing) add(pn uint64) *sentPacket {
	if r.live == 0 {
		r.base = pn
	}
	if old := r.slots; pn-r.base >= uint64(len(old)) {
		n := max(2*len(old), sentRingMin)
		for uint64(n) <= pn-r.base {
			n *= 2
		}
		r.slots = make([]sentPacket, n)
		for q := r.base; q < r.end; q++ {
			*r.slot(q) = old[q&uint64(len(old)-1)]
		}
	}
	r.end = pn + 1
	r.live++
	sp := r.slot(pn)
	sp.live, sp.pn = true, pn
	return sp
}

// get returns pn's record, or nil if pn has none (never tracked, or dead).
func (r *sentRing) get(pn uint64) *sentPacket {
	if pn < r.base || pn >= r.end || !r.slot(pn).live {
		return nil
	}
	return r.slot(pn)
}

// remove empties a live record's slot at one of its death points (ack,
// declared loss, probe requeue), dropping the frame pointers it pinned.
func (r *sentRing) remove(sp *sentPacket) {
	clear(sp.more)
	*sp = sentPacket{more: sp.more[:0]}
	r.live--
	for r.base < r.end && !r.slot(r.base).live {
		r.base++
	}
}

// reset empties the ring for the record's next connection.
func (r *sentRing) reset() {
	for i := range r.slots {
		clear(r.slots[i].more)
		r.slots[i] = sentPacket{more: r.slots[i].more[:0]}
	}
	*r = sentRing{slots: r.slots}
}

// --- Connection record recycling (Endpoint.Reset lifecycle) -------------

// takeConn returns a scrubbed connection record from the endpoint's free
// list, or a fresh one. Recycled records keep their container storage
// (maps, slices, the sent ring) and their bound callbacks;
// everything else was zeroed at retire time, so the struct is
// indistinguishable from a fresh allocation to the protocol machinery.
func (e *Endpoint) takeConn() *Conn {
	if c := e.Recycled(); c != nil {
		return c
	}
	c := &Conn{
		streams:    make(map[uint32]*Stream),
		cryptoRcvd: make(map[wire.CryptoKind]uint32),
	}
	// Bind the callbacks once per record; they capture only the pointer,
	// which stays valid across recycles.
	c.Bind(transport.Hooks{Teardown: c.teardown, LastWords: c.sendClose, Classify: c.classify})
	c.rx.Bind(&c.Conn, c.procDelay, c.process)
	c.maybeSendFn = c.maybeSend
	c.lossAlarmFn = c.onLossAlarm
	c.hsAlarmFn = c.sendCHLO
	c.ackFlushFn = c.flushDelayedAck
	return c
}

// retireConn scrubs a dead connection record for the free list. Called
// only from Endpoint.Reset, when the simulator has already been wiped — no
// scheduled event can reference the record any more. Streams are left to
// the GC; the record's ring and scratch space survive the recycle.
func retireConn(c *Conn) {
	c.sent.reset()
	clear(c.streams)
	clear(c.cryptoRcvd)
	clear(c.rot)
	c.rcvdPNs.Clear()
	*c = Conn{
		Conn:         c.Conn.Retired(),
		rx:           c.rx.Retired(),
		sent:         c.sent,
		streams:      c.streams,
		cryptoRcvd:   c.cryptoRcvd,
		rcvdPNs:      c.rcvdPNs,
		rot:          c.rot[:0],
		spurious:     c.spurious[:0],
		retransQ:     c.retransQ[:0],
		cryptoQ:      c.cryptoQ[:0],
		controlQ:     c.controlQ[:0],
		rangeScratch: c.rangeScratch[:0],
		lostScratch:  c.lostScratch[:0],
		maybeSendFn:  c.maybeSendFn,
		lossAlarmFn:  c.lossAlarmFn,
		hsAlarmFn:    c.hsAlarmFn,
		ackFlushFn:   c.ackFlushFn,
	}
}
