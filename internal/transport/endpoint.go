package transport

import (
	"time"

	"quiclab/internal/metrics"
	"quiclab/internal/netem"
	"quiclab/internal/sim"
	"quiclab/internal/trace"
)

// Endpoint is the shared half of an endpoint: the connection-record
// lifecycle over the stack's connection type C, demultiplexed by the
// stack's key type K.
//
// The graveyard rule: a record is recycled only at Reset — between
// simulation runs — never at Close, because a closed connection's bound
// callbacks may still sit in the event queue and must keep seeing the
// closed state they were armed against. Remove is the only way out of the
// live set and Recycled the only way back in, so the rule holds here alone.
type Endpoint[K comparable, C any] struct {
	// Conns is the live set. The stack adds to it on Dial and Accept.
	Conns map[K]*C
	// Net is the emulated network the endpoint sends on.
	Net *netem.Network

	sim     *sim.Simulator
	addr    netem.Addr
	handler netem.Handler
	accept  func(*C)

	graveyard []*C // closed, awaiting Reset
	free      []*C // scrubbed, awaiting Recycled
}

// Attach initialises the endpoint and attaches h, the stack's packet
// handler, to the network at addr.
func (e *Endpoint[K, C]) Attach(nw *netem.Network, addr netem.Addr, h netem.Handler) {
	e.Conns = make(map[K]*C)
	e.Net, e.sim, e.addr, e.handler = nw, nw.Sim(), addr, h
	nw.Attach(addr, h)
}

// Addr returns the endpoint's network address.
func (e *Endpoint[K, C]) Addr() netem.Addr { return e.addr }

// Sim returns the simulator the endpoint runs on.
func (e *Endpoint[K, C]) Sim() *sim.Simulator { return e.sim }

// Listen registers the server-side accept callback, invoked for each new
// peer-initiated connection before its first packet is processed, so the
// application can register its own callbacks ahead of any data.
func (e *Endpoint[K, C]) Listen(accept func(*C)) { e.accept = accept }

// Listening reports whether an accept callback is registered.
func (e *Endpoint[K, C]) Listening() bool { return e.accept != nil }

// Accept adds a peer-initiated connection to the live set and hands it to
// the accept callback.
func (e *Endpoint[K, C]) Accept(k K, c *C) {
	e.Conns[k] = c
	e.accept(c)
}

// Remove takes a closed connection out of the live set and parks its
// record until the next Reset.
func (e *Endpoint[K, C]) Remove(k K, c *C) {
	delete(e.Conns, k)
	e.graveyard = append(e.graveyard, c)
}

// Recycled returns a scrubbed record from the free list, or nil.
func (e *Endpoint[K, C]) Recycled() *C {
	n := len(e.free)
	if n == 0 {
		return nil
	}
	c := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	return c
}

// Open readies a taken record's base for a new connection created now,
// instrumented by tr: its stall profiler (if tr profiles) and its
// estimator and in-flight series.
func (e *Endpoint[K, C]) Open(c *Conn, tr *trace.Recorder, idle time.Duration) {
	now := e.sim.Now()
	c.sim, c.tracer, c.idleTimeout, c.lastActivity = e.sim, tr, idle, now
	c.prof = tr.Profiler(now)
	c.mSRTT = tr.Series(metrics.SeriesSRTT, metrics.KindDuration)
	c.mRTTVar = tr.Series(metrics.SeriesRTTVar, metrics.KindDuration)
	c.mInFlight = tr.Series(metrics.SeriesBytesInFlight, metrics.KindBytes)
}

// Reset returns the base to its just-attached state, scrubbing every
// connection record (live and graveyard) with the stack's retire and
// moving it to the free list. The network and simulator are expected to
// have been Reset already — no events referencing the old run may remain
// — and the endpoint re-attaches itself to the (cleared) network.
func (e *Endpoint[K, C]) Reset(retire func(*C)) {
	for _, c := range e.Conns {
		retire(c)
		e.free = append(e.free, c)
	}
	clear(e.Conns)
	for _, c := range e.graveyard {
		retire(c)
		e.free = append(e.free, c)
	}
	clear(e.graveyard)
	e.graveyard = e.graveyard[:0]
	e.accept = nil
	e.Net.Attach(e.addr, e.handler)
}

// ProcQueue is a connection's per-packet processing queue over the
// stack's payload type: arrivals are processed one at a time, each after
// the stack's processing delay, in arrival order. When processing is
// slower than the link delivers, the backlog delays acks and flow-control
// updates — the mechanism behind the paper's mobile findings (Fig 12/13).
type ProcQueue[T any] struct {
	conn    *Conn
	delay   func() time.Duration
	process func(T)
	nextFn  func()
	queue   []T
	head    int // queue[head:] is waiting; the slice rewinds when it empties
	busy    bool
}

// Bind installs the stack's per-packet cost and handler on a fresh record.
func (q *ProcQueue[T]) Bind(c *Conn, delay func() time.Duration, process func(T)) {
	q.conn, q.delay, q.process = c, delay, process
	q.nextFn = q.next
}

// Retired returns the queue of a scrubbed record: bindings and (emptied)
// storage survive. Packets still queued are left to the GC.
func (q *ProcQueue[T]) Retired() ProcQueue[T] {
	clear(q.queue)
	return ProcQueue[T]{conn: q.conn, delay: q.delay, process: q.process, nextFn: q.nextFn, queue: q.queue[:0]}
}

// Receive processes p now if processing is free, else enqueues it.
func (q *ProcQueue[T]) Receive(p T) {
	if q.conn.closed {
		return
	}
	d := q.delay()
	if d <= 0 {
		q.process(p)
		return
	}
	q.queue = append(q.queue, p)
	if !q.busy {
		q.busy = true
		q.conn.sim.Schedule(d, q.nextFn)
	}
}

func (q *ProcQueue[T]) next() {
	if q.conn.closed || q.head == len(q.queue) {
		q.busy = false
		return
	}
	var zero T
	p := q.queue[q.head]
	q.queue[q.head] = zero
	if q.head++; q.head == len(q.queue) {
		q.queue, q.head = q.queue[:0], 0
	}
	q.process(p)
	if q.head < len(q.queue) {
		q.conn.sim.Schedule(q.delay(), q.nextFn)
	} else {
		q.busy = false
	}
}
