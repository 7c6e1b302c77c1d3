package quic

import (
	"sync"

	"quiclab/internal/transport"
	"quiclab/internal/wire"
)

// Per-packet object recycling. A packet envelope (and any ack frame it
// carries) is created by the sender and dies on the receiver once
// process() has consumed it, so both recycle through global pools.
// Retransmittable frames (stream/crypto/control) are NOT pooled: the
// same frame pointers ride in sender-side retransmission state
// (sentPacket.frames, retransQ) and outlive the packet that carried
// them. Ack frames are excluded from that state and never requeued,
// which is what makes them safe to recycle.
//
// Packets dropped by netem (loss, queue overflow, outage) and packets
// pending in a closed connection's processing queue are simply left to
// the garbage collector — the pools only need the common case.

var packetPool = sync.Pool{New: func() any { return new(packet) }}

func getPacket() *packet {
	p := packetPool.Get().(*packet)
	p.frames = p.frames[:0]
	return p
}

// releasePacket returns a fully processed packet to the pool, recycling
// any ack frame it carried. Frame pointers are cleared so the pooled
// envelope does not pin frames that live on in sender-side state.
func releasePacket(p *packet) {
	for i, f := range p.frames {
		if af, ok := f.(*wire.AckFrame); ok {
			releaseAckFrame(af)
		}
		p.frames[i] = nil
	}
	p.connID, p.pn, p.size = 0, 0, 0
	p.frames = p.frames[:0]
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

// getSentPacket takes a loss-detection record from the connection's
// free list (sendPacket is the only caller; records return to the list
// at each of their death points: ack, declared loss, probe requeue).
func (c *Conn) getSentPacket() *sentPacket {
	if n := len(c.spFree); n > 0 {
		sp := c.spFree[n-1]
		c.spFree = c.spFree[:n-1]
		return sp
	}
	return new(sentPacket)
}

func (c *Conn) putSentPacket(sp *sentPacket) {
	for i := range sp.frames {
		sp.frames[i] = nil
	}
	frames := sp.frames[:0]
	*sp = sentPacket{frames: frames}
	c.spFree = append(c.spFree, sp)
}

// --- Connection record recycling (Endpoint.Reset lifecycle) -------------

// takeConn returns a scrubbed connection record from the endpoint's free
// list, or a fresh one. Recycled records keep their container storage
// (maps, slices, the sentPacket free list) and their bound callbacks;
// everything else was zeroed at retire time, so the struct is
// indistinguishable from a fresh allocation to the protocol machinery.
func (e *Endpoint) takeConn() *Conn {
	if c := e.Recycled(); c != nil {
		return c
	}
	c := &Conn{
		sent:       make(map[uint64]*sentPacket),
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
// scheduled event can reference the record any more. In-flight sentPacket
// records and Streams are left to the GC; the record's own free lists and
// scratch space survive the recycle.
func retireConn(c *Conn) {
	clear(c.sent)
	clear(c.streams)
	clear(c.cryptoRcvd)
	clear(c.spurious)
	c.rcvdPNs.Clear()
	*c = Conn{
		Conn:            c.Conn.Retired(),
		rx:              c.rx.Retired(),
		sent:            c.sent,
		streams:         c.streams,
		cryptoRcvd:      c.cryptoRcvd,
		spurious:        c.spurious,
		rcvdPNs:         c.rcvdPNs,
		sentOrder:       c.sentOrder[:0],
		streamOrder:     c.streamOrder[:0],
		retransQ:        c.retransQ[:0],
		cryptoQ:         c.cryptoQ[:0],
		controlQ:        c.controlQ[:0],
		rangeScratch:    c.rangeScratch[:0],
		spuriousScratch: c.spuriousScratch[:0],
		spFree:          c.spFree,
		lostScratch:     c.lostScratch[:0],
		maybeSendFn:     c.maybeSendFn,
		lossAlarmFn:     c.lossAlarmFn,
		hsAlarmFn:       c.hsAlarmFn,
		ackFlushFn:      c.ackFlushFn,
	}
}
