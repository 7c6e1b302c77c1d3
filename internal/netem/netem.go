// Package netem emulates network paths the way the paper's OpenWRT router
// did with Linux tc + netem: token-bucket rate limiting with a drop-tail
// byte-limited queue, fixed propagation delay, per-packet jitter, and
// Bernoulli loss.
//
// Jitter follows netem's semantics, which the paper leaned on for its
// packet-reordering experiments (§5.2): each packet is assigned its own
// delay and is delivered at its adjusted time regardless of the order in
// which packets entered the link, so jitter larger than the inter-packet
// gap reorders packets.
//
// Multiple senders may share one Link; they then share its queue and its
// token bucket, which is exactly what makes the fairness experiments
// (Fig 4, Table 4) meaningful.
package netem

import (
	"fmt"
	"time"

	"quiclab/internal/metrics"
	"quiclab/internal/sim"
)

// Addr identifies an endpoint on a Network.
type Addr int

func (a Addr) String() string { return fmt.Sprintf("n%d", int(a)) }

// Packet is the unit moved across links. Payload is the transport's own
// packet structure (opaque to netem); Size is the on-the-wire size in
// bytes and is what rate limiting and queue occupancy are charged against.
type Packet struct {
	Src, Dst Addr
	Size     int
	Payload  interface{}
	// Wire, when non-nil, carries the packet's pooled wire encoding
	// (transports' WireEncode mode). It is released together with the
	// envelope unless the receiver detaches it via TakeWire.
	Wire *PacketBuf

	pooled   bool // obtained from packetPool (NewPacket)
	released bool // double-release guard
}

// LinkStats counts what happened on a link.
type LinkStats struct {
	Sent           int // packets accepted onto the link
	Delivered      int
	DroppedQueue   int // drop-tail queue overflow
	DroppedLoss    int // random (Bernoulli) loss
	DroppedBurst   int // Gilbert-Elliott burst loss
	DroppedOutage  int // link was down (outage window)
	Reordered      int // packets held back by reorder emulation
	BytesDelivered int64
	// DropsBySrc breaks queue drops down by packet source (useful for
	// per-flow fairness diagnostics).
	DropsBySrc map[Addr]int
}

// Config describes one direction of an emulated path.
type Config struct {
	// RateBps is the token-bucket rate in bits per second. Zero means
	// unlimited (no serialization delay, no queueing).
	RateBps int64
	// Delay is the fixed one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter] per packet,
	// with netem's reordering semantics.
	Jitter time.Duration
	// LossProb is the Bernoulli packet loss probability in [0,1].
	LossProb float64
	// ReorderProb is the probability that a packet is held back by
	// ReorderExtra, arriving after packets sent later (netem's explicit
	// reorder knob; used by the cellular profiles in Table 5).
	ReorderProb float64
	// ReorderExtra is the extra delay applied to reordered packets.
	// Zero selects 4x the inter-packet time at the configured rate, or
	// 5 ms when the rate is unlimited.
	ReorderExtra time.Duration
	// QueueBytes is the drop-tail queue capacity in bytes. Zero selects a
	// default sized for ~1 bandwidth-delay product at 100 ms, min 64 KB.
	QueueBytes int
	// GE, when non-nil, enables the Gilbert-Elliott two-state burst-loss
	// model on top of (usually instead of) the Bernoulli LossProb.
	GE *GilbertElliott
}

// DefaultQueueBytes returns the queue size used when Config.QueueBytes is
// zero: roughly one 100 ms bandwidth-delay product, at least 64 KB.
func DefaultQueueBytes(rateBps int64) int {
	if rateBps <= 0 {
		return 1 << 20
	}
	bdp := int(rateBps / 8 / 10) // 100ms of bytes
	if bdp < 64<<10 {
		bdp = 64 << 10
	}
	return bdp
}

// Link is one direction of an emulated path. Deliver packets into it with
// Send; it invokes Out at each packet's (virtual-time) arrival.
type Link struct {
	sim *sim.Simulator
	cfg Config
	// Out receives delivered packets. Must be set before Send.
	Out func(*Packet)

	nextFree    time.Duration // when the "wire" is next free to serialize
	queuedBytes int
	down        bool // outage: all new sends are dropped
	geBad       bool // Gilbert-Elliott state (true = bad/bursty)
	stats       LinkStats

	// The packets the link holds, as the two FIFOs a pipe is: sizes leave
	// the queue at their departure (nextFree is monotonic), packets reach
	// Out at their arrival (in order too, until jitter, reordering or a
	// delay fault says otherwise — the lane takes those out of line).
	departures *sim.Lane[int]
	arrivals   *sim.Lane[*Packet]

	// Time-series (nil unless Instrument was called). The nil checks in
	// sampleQueue/sampleDrop keep the uninstrumented Send path at zero
	// allocations (BenchmarkLinkTransfer guards this).
	mQueue *metrics.Series
	mDrops *metrics.Series
}

// Instrument attaches time-series to the link: queue records the
// instantaneous queue depth in bytes, drops the cumulative count of
// dropped packets across all four drop causes. Either may be nil.
func (l *Link) Instrument(queue, drops *metrics.Series) {
	l.mQueue = queue
	l.mDrops = drops
}

func (l *Link) sampleQueue() {
	if l.mQueue == nil {
		return
	}
	l.mQueue.Record(l.sim.Now(), float64(l.queuedBytes))
}

func (l *Link) sampleDrop() {
	if l.mDrops == nil {
		return
	}
	st := &l.stats
	l.mDrops.Record(l.sim.Now(),
		float64(st.DroppedQueue+st.DroppedLoss+st.DroppedBurst+st.DroppedOutage))
}

// NewLink creates a link on s with configuration cfg. Invalid
// configurations (see Config.Validate) are programming errors and panic.
func NewLink(s *sim.Simulator, cfg Config) *Link {
	if err := cfg.Validate(); err != nil {
		panic("netem: " + err.Error())
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = DefaultQueueBytes(cfg.RateBps)
	}
	l := &Link{sim: s, cfg: cfg}
	l.departures = sim.NewLane(s, l.depart)
	l.arrivals = sim.NewLane(s, l.deliver)
	return l
}

// Reset returns the link to the state NewLink(s, cfg) would produce while
// keeping its lanes' storage. The caller must re-establish Out (normally
// via Network.SetPath) and re-Instrument before the next run; the owning
// simulator is expected to have been Reset too, which is what empties the
// lanes of the old run's departures and deliveries.
func (l *Link) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic("netem: " + err.Error())
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = DefaultQueueBytes(cfg.RateBps)
	}
	l.cfg = cfg
	l.Out = nil
	l.nextFree = 0
	l.queuedBytes = 0
	l.down = false
	l.geBad = false
	l.stats = LinkStats{}
	l.mQueue = nil
	l.mDrops = nil
}

// deliver is the arrival lane's callback.
func (l *Link) deliver(pkt *Packet) {
	l.stats.Delivered++
	l.stats.BytesDelivered += int64(pkt.Size)
	l.Out(pkt)
}

// depart is the departure lane's callback: size bytes leave the queue.
func (l *Link) depart(size int) {
	l.queuedBytes -= size
	l.sampleQueue()
}

// Config returns the link's current configuration.
func (l *Link) Config() Config { return l.cfg }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetRate changes the token-bucket rate, e.g. for the variable-bandwidth
// experiments (Fig 11). Packets already serialized keep their departure
// times; the new rate applies from the current backlog onward.
func (l *Link) SetRate(rateBps int64) {
	l.cfg.RateBps = rateBps
}

// SetLoss changes the Bernoulli loss probability.
func (l *Link) SetLoss(p float64) { l.cfg.LossProb = p }

// QueueLen returns the current number of bytes occupying the queue (packets
// accepted but not yet departed).
func (l *Link) QueueLen() int { return l.queuedBytes }

// QueuedPackets returns the number of packets occupying the queue.
func (l *Link) QueuedPackets() int { return l.departures.Len() }

// InFlight returns the number of packets accepted and not yet delivered
// (queued, serializing or propagating): Stats().Sent - Stats().Delivered.
func (l *Link) InFlight() int { return l.arrivals.Len() }

// Send places pkt onto the link. It may be dropped by loss emulation or by
// queue overflow; otherwise it is delivered to Out after serialization,
// propagation delay and jitter.
func (l *Link) Send(pkt *Packet) {
	if l.Out == nil {
		panic("netem: link has no Out")
	}
	if l.down {
		l.stats.DroppedOutage++
		l.sampleDrop()
		pkt.Release()
		return
	}
	if l.cfg.GE != nil && l.geStep() {
		l.stats.DroppedBurst++
		l.sampleDrop()
		pkt.Release()
		return
	}
	if l.cfg.LossProb > 0 && l.sim.Rand().Float64() < l.cfg.LossProb {
		l.stats.DroppedLoss++
		l.sampleDrop()
		pkt.Release()
		return
	}
	now := l.sim.Now()
	var depart time.Duration
	if l.cfg.RateBps <= 0 {
		depart = now
	} else {
		if l.queuedBytes+pkt.Size > l.cfg.QueueBytes {
			l.stats.DroppedQueue++
			if l.stats.DropsBySrc == nil {
				l.stats.DropsBySrc = make(map[Addr]int)
			}
			l.stats.DropsBySrc[pkt.Src]++
			l.sampleDrop()
			pkt.Release()
			return
		}
		txTime := time.Duration(float64(pkt.Size*8) / float64(l.cfg.RateBps) * float64(time.Second))
		if l.nextFree < now {
			l.nextFree = now
		}
		depart = l.nextFree + txTime
		l.nextFree = depart
		l.queuedBytes += pkt.Size
		l.sampleQueue()
		l.departures.PushAt(depart, pkt.Size)
	}
	l.stats.Sent++
	arrive := depart + l.cfg.Delay
	if l.cfg.Jitter > 0 {
		arrive += time.Duration(l.sim.Rand().Int63n(int64(l.cfg.Jitter) + 1))
	}
	if l.cfg.ReorderProb > 0 && l.sim.Rand().Float64() < l.cfg.ReorderProb {
		extra := l.cfg.ReorderExtra
		if extra == 0 {
			if l.cfg.RateBps > 0 {
				extra = 4 * time.Duration(float64(pkt.Size*8)/float64(l.cfg.RateBps)*float64(time.Second))
			} else {
				extra = 5 * time.Millisecond
			}
		}
		arrive += extra
		l.stats.Reordered++
	}
	l.arrivals.PushAt(arrive, pkt)
}

// Handler consumes packets delivered to an endpoint.
type Handler interface {
	HandlePacket(pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*Packet)

// HandlePacket implements Handler.
func (f HandlerFunc) HandlePacket(p *Packet) { f(p) }

// Network wires endpoints together through per-(src,dst) link paths. A
// path is an ordered chain of links the packet traverses; distinct (src,
// dst) pairs may share links (shared bottlenecks).
type Network struct {
	sim      *sim.Simulator
	handlers map[Addr]Handler
	paths    map[[2]Addr][]*Link
}

// NewNetwork creates an empty network on s.
func NewNetwork(s *sim.Simulator) *Network {
	return &Network{
		sim:      s,
		handlers: make(map[Addr]Handler),
		paths:    make(map[[2]Addr][]*Link),
	}
}

// Sim returns the simulator the network runs on.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// Reset detaches every handler and forgets every path, returning the
// network to the state NewNetwork would produce (the map storage is
// retained). Links referenced by forgotten paths are untouched; reset
// them separately.
func (n *Network) Reset() {
	clear(n.handlers)
	clear(n.paths)
}

// Attach registers the handler for addr. Packets whose path ends are
// handed to the destination's handler.
func (n *Network) Attach(addr Addr, h Handler) {
	n.handlers[addr] = h
}

// SetPath declares that packets from src to dst traverse links in order.
// Each link's Out is managed by the network; a single *Link may appear in
// several paths (shared bottleneck).
func (n *Network) SetPath(src, dst Addr, links ...*Link) {
	if len(links) == 0 {
		panic("netem: empty path")
	}
	n.paths[[2]Addr{src, dst}] = links
	for i, l := range links {
		if i+1 < len(links) {
			next := links[i+1]
			l.Out = next.Send
		} else {
			l.Out = n.deliver
		}
	}
}

// deliver hands the packet to the destination handler and then releases
// the pooled envelope — the end of its flight. Handlers keep the Payload
// (caller-owned) but must not retain the *Packet itself.
func (n *Network) deliver(pkt *Packet) {
	if h, ok := n.handlers[pkt.Dst]; ok {
		h.HandlePacket(pkt)
	}
	pkt.Release()
}

// Send injects pkt at its source; it traverses the configured path. Packets
// with no configured path are dropped silently (like a missing route).
func (n *Network) Send(pkt *Packet) {
	links, ok := n.paths[[2]Addr{pkt.Src, pkt.Dst}]
	if !ok {
		pkt.Release()
		return
	}
	links[0].Send(pkt)
}

// Path returns the links on the src->dst path, or nil.
func (n *Network) Path(src, dst Addr) []*Link {
	return n.paths[[2]Addr{src, dst}]
}

// Varier periodically resamples link rates. Stop it when the experiment's
// flows finish, or the simulator will keep ticking forever.
type Varier struct {
	stopped bool
}

// Stop halts the varier after its current tick.
func (v *Varier) Stop() { v.stopped = true }

// VaryRate resamples the rate of each link uniformly in [minBps, maxBps]
// every interval — the paper's fluctuating-bandwidth setup (Fig 11:
// 50–150 Mbps resampled every second). Returns a Varier to stop it.
func VaryRate(s *sim.Simulator, interval time.Duration, minBps, maxBps int64, links ...*Link) *Varier {
	v := &Varier{}
	var tick func()
	tick = func() {
		if v.stopped {
			return
		}
		r := minBps + s.Rand().Int63n(maxBps-minBps+1)
		for _, l := range links {
			l.SetRate(r)
		}
		s.Schedule(interval, tick)
	}
	s.Schedule(0, tick)
	return v
}
