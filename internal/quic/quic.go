// Package quic implements a gQUIC-like transport over the emulated
// network: multiplexed streams, QUIC-Crypto-style 0-RTT connection
// establishment, ACK frames with ranges and receive timestamps,
// NACK-threshold loss detection with tail loss probes and RTO, Cubic (or
// BBR) congestion control, packet pacing, and connection/stream flow
// control.
//
// The implementation is a clean-room reconstruction of the mechanisms the
// paper's evaluation exercises (see DESIGN.md §2); each config knob below
// corresponds to a parameter the paper calibrated or varied.
package quic

import (
	"fmt"
	"slices"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/netem"
	"quiclab/internal/trace"
	"quiclab/internal/transport"
	"quiclab/internal/wire"
)

// Default protocol constants (gQUIC-era values).
const (
	// DefaultNACKThreshold is the fixed NACK count after which a packet
	// is declared lost (the paper's §5.2 reordering story: packets
	// reordered deeper than this look like losses).
	DefaultNACKThreshold = 3
	// DefaultMaxStreams is gQUIC's default MaxStreamsPerConnection.
	DefaultMaxStreams = 100
	// DefaultStreamRecvWindow and DefaultConnRecvWindow are the
	// post-auto-tune receive windows of a desktop-class endpoint.
	DefaultStreamRecvWindow = 4 << 20
	DefaultConnRecvWindow   = 6 << 20
	// MaxPacketSize is the gQUIC UDP payload size.
	MaxPacketSize = 1350

	// Handshake message sizes (synthetic but realistic).
	inchoateCHLOSize = 500
	rejSize          = 1800
	fullCHLOSize     = 900
	shloSize         = 200

	maxAckRanges = 32
	// maxWatched bounds the false-loss watch once acks have passed its
	// entries (onAckFrame).
	maxWatched    = 4096
	ackDelayLimit = 25 * time.Millisecond
	ackEveryN     = 2
	maxTLPProbes  = 2
	// initialRTT stands in for srtt until the first sample.
	initialRTT = 100 * time.Millisecond
)

// Config parameterises an endpoint. The zero value gets calibrated
// gQUIC-34 desktop defaults.
type Config struct {
	// CC is the Cubic configuration (paper §4.1 calibration: MACW,
	// N-connection emulation, HyStart, PRR, pacing, ssthresh bug).
	// Ignored when CCAlgo is set.
	CC cc.CubicConfig
	// CCAlgo selects a congestion controller from the registry by name
	// (cc.Algorithms lists them; "bbr" is Fig 3b's) in its standard
	// configuration, overriding CC. Empty keeps the calibrated Cubic.
	// Callers validate the name (CLIs exit 2 on unknown algorithms); an
	// unknown name here panics.
	CCAlgo string
	// NACKThreshold overrides the fast-retransmit NACK threshold
	// (Fig 10 sweeps this). 0 means DefaultNACKThreshold.
	NACKThreshold int
	// TimeLossDetection replaces the fixed NACK count with a RACK-style
	// rule: a packet is lost only when a later packet was acked AND more
	// than 1.25x srtt has passed since it was sent. This is the
	// "time-based solution" the QUIC team told the authors they were
	// experimenting with (§5.2) — reordering-tolerant without a
	// threshold to tune.
	TimeLossDetection bool
	// AdaptiveNACK raises the NACK threshold whenever a loss turns out
	// to be spurious (the declared-lost packet is later acked),
	// mirroring TCP's RR-TCP/DSACK adaptation.
	AdaptiveNACK bool
	// MaxStreams is the MaxStreamsPerConnection limit. 0 means
	// DefaultMaxStreams.
	MaxStreams int
	// StreamRecvWindow / ConnRecvWindow are this endpoint's advertised
	// flow-control windows. 0 means the desktop defaults. Mobile device
	// profiles shrink these (memory-constrained clients).
	StreamRecvWindow uint64
	ConnRecvWindow   uint64
	// Disable0RTT makes clients run a full handshake on every
	// connection (Fig 7 ablation).
	Disable0RTT bool
	// No0RTTServer makes this server hand out non-cacheable configs, so
	// clients can never 0-RTT to it — the paper's unoptimised QUIC proxy
	// behaviour (§5.5, Fig 18).
	No0RTTServer bool
	// ProcDelay is the per-received-packet userspace processing cost
	// (decryption + delivery). This is the paper's mobile mechanism:
	// QUIC processes packets in the application, so slow clients drain
	// slowly, stall flow-control, and push the server into
	// ApplicationLimited (Fig 12/13).
	ProcDelay time.Duration
	// StreamTouchDelay is an additional per-packet processing cost per
	// active stream: userspace per-stream bookkeeping that grows with
	// multiplexing width. Because QUIC acks are generated in userspace
	// *after* this processing (unlike TCP's kernel acks), heavy
	// multiplexing inflates QUIC's RTT samples and triggers HyStart's
	// delay-increase exit — the paper's root cause for QUIC's poor
	// performance with large numbers of small objects (§5.2).
	StreamTouchDelay time.Duration
	// HandshakeCryptoDelay is a one-time client-side crypto setup cost.
	HandshakeCryptoDelay time.Duration
	// IdleTimeout closes connections that receive no packets for this
	// long (classified trace.ReasonIdleTimeout). 0 selects
	// transport.DefaultIdleTimeout; negative disables idle teardown.
	IdleTimeout time.Duration
	// Tracer is the one instrument of this endpoint's connections: it
	// records their events and CC state transitions, carries the
	// collector their time series (cwnd, srtt, bytes in flight,
	// flow-control windows) register on, and profiles their stalls if
	// set to (trace.Recorder.Profile). May be nil.
	Tracer *trace.Recorder
	// WireEncode serializes every sent packet into a pooled buffer that
	// rides the emulated network alongside the structured payload; the
	// receiver decodes and verifies the image before releasing the
	// buffer (see DESIGN.md §10). The structured payload remains the
	// source of truth — the wire image is lossy (ack delay truncates to
	// microseconds) — so golden runs keep this off.
	WireEncode bool
}

func (c Config) withDefaults() Config {
	if c.CC.MSS == 0 {
		c.CC = cc.DefaultQUICConfig()
		c.CC.MSS = MaxPacketSize
	}
	if c.NACKThreshold == 0 {
		c.NACKThreshold = DefaultNACKThreshold
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = DefaultMaxStreams
	}
	if c.StreamRecvWindow == 0 {
		c.StreamRecvWindow = DefaultStreamRecvWindow
	}
	if c.ConnRecvWindow == 0 {
		c.ConnRecvWindow = DefaultConnRecvWindow
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = transport.DefaultIdleTimeout
	}
	return c
}

// Endpoint is a QUIC endpoint attached to an emulated network address. A
// client endpoint dials; a server endpoint listens. The embedded
// transport.Endpoint owns the connection-record lifecycle; what is QUIC's
// own is the client's 0-RTT session cache (cached server configs), which
// the paper deliberately did not clear between runs.
type Endpoint struct {
	transport.Endpoint[uint64, Conn]
	cfg        Config
	nextConnID uint64

	// sessionCache: server addr -> have server config (enables 0-RTT).
	sessionCache map[netem.Addr]bool
}

// NewEndpoint creates an endpoint and attaches it to the network.
func NewEndpoint(nw *netem.Network, addr netem.Addr, cfg Config) *Endpoint {
	e := &Endpoint{
		cfg:          cfg.withDefaults(),
		nextConnID:   uint64(addr)<<32 + 1,
		sessionCache: make(map[netem.Addr]bool),
	}
	e.Attach(nw, addr, e)
	return e
}

// Reset returns the endpoint to the state NewEndpoint(nw, addr, cfg)
// would produce, recycling every connection record onto the endpoint's
// free list (see transport.Endpoint.Reset for the preconditions).
func (e *Endpoint) Reset(cfg Config) {
	e.Endpoint.Reset(retireConn)
	e.cfg = cfg.withDefaults()
	e.nextConnID = uint64(e.Addr())<<32 + 1
	clear(e.sessionCache)
}

// ClearSessionCache drops cached server configs, forcing the next Dial to
// run a full handshake.
func (e *Endpoint) ClearSessionCache() {
	e.sessionCache = make(map[netem.Addr]bool)
}

// Has0RTT reports whether a Dial to remote would use 0-RTT.
func (e *Endpoint) Has0RTT(remote netem.Addr) bool {
	return !e.cfg.Disable0RTT && e.sessionCache[remote]
}

// Dial opens a connection to the server at remote. If the endpoint has a
// cached server config (and 0-RTT isn't disabled), stream data may be
// sent immediately (0-RTT); otherwise the connection runs the inchoate
// CHLO -> REJ -> full CHLO exchange first.
func (e *Endpoint) Dial(remote netem.Addr) *Conn {
	id := e.nextConnID
	e.nextConnID++
	c := newConn(e, id, remote, true)
	e.Conns[id] = c
	c.startClientHandshake()
	return c
}

// HandlePacket implements netem.Handler.
func (e *Endpoint) HandlePacket(pkt *netem.Packet) {
	pp, ok := pkt.Payload.(*packet)
	if !ok {
		return
	}
	if w := pkt.TakeWire(); w != nil {
		verifyWire(w, pp)
		w.Release()
	}
	c, ok := e.Conns[pp.connID]
	if !ok {
		if !e.Listening() {
			return // drop
		}
		// A close notice for a connection we already dropped must not
		// resurrect it as a ghost connection.
		for _, f := range pp.frames {
			if f.Type() == wire.FrameConnectionClose {
				return
			}
		}
		// Accept fires before processing so the application can register
		// OnStream ahead of any (possibly 0-RTT) stream frames.
		c = newConn(e, pp.connID, pkt.Src, false)
		e.Accept(pp.connID, c)
	}
	c.rx.Receive(pp)
}

// verifyWire decodes a received packet's pooled wire image, made when the
// packet was sent, and checks it against the structured payload as it
// arrives, frame by frame: a mismatch means the encoder and the
// simulator's bookkeeping disagree, or a frame changed in flight — a
// programming error either way, so it panics.
func verifyWire(w *netem.PacketBuf, pp *packet) {
	if len(w.B) != pp.size {
		panic(fmt.Sprintf("quic: wire image is %d bytes, packet size %d", len(w.B), pp.size))
	}
	dec, err := wire.DecodeQUICPacket(w.B)
	if err != nil {
		panic("quic: wire image does not decode: " + err.Error())
	}
	if dec.ConnID != pp.connID || dec.PacketNumber != pp.pn || len(dec.Frames) != len(pp.frames) {
		panic(fmt.Sprintf("quic: wire image decoded to conn=%d pn=%d frames=%d, want conn=%d pn=%d frames=%d",
			dec.ConnID, dec.PacketNumber, len(dec.Frames), pp.connID, pp.pn, len(pp.frames)))
	}
	for i, f := range pp.frames {
		if !sameFrame(dec.Frames[i], f) {
			panic(fmt.Sprintf("quic: pn %d frame %d decoded to %s %+v, the packet carries %s %+v",
				pp.pn, i, dec.Frames[i].Type(), dec.Frames[i], f.Type(), f))
		}
	}
}

// sameFrame reports whether a decoded frame has f's type and fields, as
// far as the wire keeps them (an ack delay travels in whole microseconds).
func sameFrame(dec, f wire.Frame) bool {
	switch d := dec.(type) {
	case *wire.AckFrame:
		a, ok := f.(*wire.AckFrame)
		return ok && d.LargestAcked == a.LargestAcked && d.ReceiveTimestamps == a.ReceiveTimestamps &&
			d.AckDelay == time.Duration(uint32(a.AckDelay/time.Microsecond))*time.Microsecond &&
			slices.Equal(d.Ranges, a.Ranges)
	case *wire.StreamFrame:
		return equalTo(d, f)
	case *wire.WindowUpdateFrame:
		return equalTo(d, f)
	case *wire.BlockedFrame:
		return equalTo(d, f)
	case *wire.StopWaitingFrame:
		return equalTo(d, f)
	case *wire.CryptoFrame:
		return equalTo(d, f)
	case *wire.PingFrame:
		return equalTo(d, f)
	case *wire.ConnectionCloseFrame:
		return equalTo(d, f)
	}
	return false
}

// equalTo reports whether f is a *T equal to *d.
func equalTo[T comparable](d *T, f wire.Frame) bool {
	g, ok := any(f).(*T)
	return ok && *d == *g
}
