package tcp

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"quiclab/internal/transport"
	"quiclab/internal/wire"
)

// Per-segment object recycling. A wire.TCPSegment (and its demux
// wrapper) is created by the sender and dies on the receiver once
// process() has consumed it — nothing retains the struct afterwards
// (SACK blocks and ack fields are copied out by value). Segments
// dropped by netem, and segments queued in a connection that closes,
// are left to the garbage collector.

var tcpSegPool = sync.Pool{New: func() any { return new(wire.TCPSegment) }}

// getSegment returns a zeroed segment whose SACK slice keeps its
// previous capacity, so steady-state ack building allocates nothing.
func getSegment() *wire.TCPSegment {
	seg := tcpSegPool.Get().(*wire.TCPSegment)
	*seg = wire.TCPSegment{SACK: seg.SACK[:0]}
	return seg
}

func releaseSegment(seg *wire.TCPSegment) {
	seg.DSACK = nil
	tcpSegPool.Put(seg)
}

// wrapPool recycles the demux wrappers; a wrapper's flight ends inside
// Endpoint.HandlePacket, as soon as its fields are read.
var wrapPool = sync.Pool{New: func() any { return new(segment) }}

// getSentSeg takes a loss-detection record from the connection's free
// list (transmit is the only caller; records return to the list at each
// death point: cumulative ack, SACK coverage, declared loss, RTO
// requeue, and replacement by a same-sequence retransmission). An empty
// list refills with a batch of records in one backing array, as many as
// are live (every record off the list is on the scoreboard): batches
// start at sentSegBatchMin and double up to sentSegBatchMax, so a short
// connection holds a few spare records and a long one at most a batch.
func (c *Conn) getSentSeg() *sentSeg {
	if len(c.ssFree) == 0 {
		batch := make([]sentSeg, min(max(sentSegBatchMin, c.sb.len()), sentSegBatchMax))
		for i := range batch {
			c.ssFree = append(c.ssFree, &batch[i])
		}
	}
	n := len(c.ssFree)
	ss := c.ssFree[n-1]
	c.ssFree = c.ssFree[:n-1]
	return ss
}

const sentSegBatchMin, sentSegBatchMax = 4, 64

func (c *Conn) putSentSeg(ss *sentSeg) {
	*ss = sentSeg{}
	c.ssFree = append(c.ssFree, ss)
}

// scoreboard is the sender's retransmission queue: every transmitted
// segment not yet cumulatively acked, SACKed or declared lost, one entry
// per seq, strictly ascending in seq, nothing dead in it. Live entries are
// buf[head:]: a cumulative ack pops a prefix by advancing head, and insert
// slides the live part back to the front once half a full buffer is dead,
// so steady state neither shifts the window per ack nor allocates.
type scoreboard struct {
	buf  []*sentSeg
	head int
}

func (b *scoreboard) live() []*sentSeg { return b.buf[b.head:] }
func (b *scoreboard) len() int         { return len(b.buf) - b.head }

// find returns the live position of the entry for seq, or where it would
// be inserted. New data sorts after everything outstanding.
func (b *scoreboard) find(seq uint64) (int, bool) {
	live := b.live()
	if n := len(live); n == 0 || live[n-1].seq < seq {
		return n, false
	}
	return slices.BinarySearchFunc(live, seq, func(ss *sentSeg, seq uint64) int { return cmp.Compare(ss.seq, seq) })
}

// insert places ss at live position i, as returned by find.
func (b *scoreboard) insert(i int, ss *sentSeg) {
	if len(b.buf) == cap(b.buf) && b.head > 0 && b.head >= len(b.buf)/2 {
		b.buf, b.head = b.buf[:copy(b.buf, b.live())], 0
	}
	b.buf = append(b.buf, nil)
	live := b.live()
	copy(live[i+1:], live[i:])
	live[i] = ss
}

// cut removes live[from:to] by moving whichever side of the gap is
// shorter, so popping a prefix costs nothing and removing from the middle
// really removes.
func (b *scoreboard) cut(from, to int) {
	live := b.live()
	if from < len(live)-to {
		copy(live[to-from:to], live[:from])
		b.head += to - from
	} else {
		b.buf = b.buf[:b.head+from+copy(live[from:], live[to:])]
	}
}

// --- Connection record recycling (Endpoint.Reset lifecycle) -------------

// takeConn returns a scrubbed connection record from the endpoint's free
// list, or a fresh one. Recycled records keep their container storage
// (slices, the scoreboard buffer, the sentSeg free list) and their bound
// callbacks; everything else was zeroed at retire time, so the struct is
// indistinguishable from a fresh allocation to the protocol machinery.
func (e *Endpoint) takeConn() *Conn {
	if c := e.Recycled(); c != nil {
		return c
	}
	c := &Conn{}
	// Bind the callbacks once per record; they capture only the pointer,
	// which stays valid across recycles.
	c.Bind(transport.Hooks{Teardown: c.teardown, Classify: c.classify})
	c.rx.Bind(&c.Conn, func() time.Duration { return c.cfg.ProcDelay }, c.process)
	c.sendSYNFn = c.sendSYN
	c.onTLPFn = c.onTLP
	c.onRTOFn = c.onRTO
	c.flushAckFn = c.flushAck
	return c
}

// retireConn scrubs a dead connection record for the free list. Called
// only from Endpoint.Reset, when the simulator has already been wiped — no
// scheduled event can reference the record any more. In-flight sentSeg
// records and queued segments are left to the GC; the record's own free
// lists and scratch space survive the recycle.
func retireConn(c *Conn) {
	clear(c.sb.buf[:cap(c.sb.buf)])
	c.sacked.Clear()
	c.received.Clear()
	*c = Conn{
		Conn:        c.Conn.Retired(),
		rx:          c.rx.Retired(),
		sb:          scoreboard{buf: c.sb.buf[:0]},
		sacked:      c.sacked,
		received:    c.received,
		retransQ:    c.retransQ[:0],
		sackScratch: c.sackScratch[:0],
		ssFree:      c.ssFree,
		lostScratch: c.lostScratch[:0],
		sendSYNFn:   c.sendSYNFn,
		onTLPFn:     c.onTLPFn,
		onRTOFn:     c.onRTOFn,
		flushAckFn:  c.flushAckFn,
	}
}
