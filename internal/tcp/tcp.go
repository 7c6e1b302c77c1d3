// Package tcp implements a TCP+TLS-like reliable bytestream transport
// over the emulated network: 3-way handshake plus a 2-RTT TLS-1.2-style
// exchange, cumulative ACKs with SACK and DSACK, RR-TCP dupthresh
// adaptation (reordering robustness — the counterpoint to QUIC's fixed
// NACK threshold, paper §5.2), delayed ACKs, millisecond-granularity
// timestamp RTT sampling with Karn's rule, Cubic congestion control, and
// receive-window flow control.
//
// It models what the paper calls "TCP": the HTTP/2+TLS+TCP stack QUIC is
// compared against. The head-of-line blocking property is inherent: one
// connection carries one ordered bytestream, so a loss stalls all
// multiplexed objects on it. Browsers compensate with up to 6 parallel
// connections (internal/web).
package tcp

import (
	"fmt"

	"time"

	"quiclab/internal/cc"
	"quiclab/internal/netem"
	"quiclab/internal/trace"
	"quiclab/internal/transport"
	"quiclab/internal/wire"
)

// Handshake message sizes (TLS 1.2 full handshake, synthetic but
// realistic).
const (
	clientHelloSize  = 300
	serverFlightSize = 3700 // ServerHello + Certificate + ServerHelloDone
	clientKexSize    = 400  // ClientKeyExchange + CCS + Finished
	serverFinSize    = 300  // CCS + Finished
	// Total pre-application bytes in each direction.
	hsClientBytes = clientHelloSize + clientKexSize
	hsServerBytes = serverFlightSize + serverFinSize
)

const (
	defaultRecvBuffer = 6 << 20 // Linux autotuned rmem for fast paths
	initialDupThresh  = 3
	maxDupThresh      = 300
	delayedAckTimeout = 40 * time.Millisecond
	ackEveryN         = 2
	// initialRTT stands in for srtt until the first sample.
	initialRTT = 200 * time.Millisecond
)

// Config parameterises a TCP endpoint.
type Config struct {
	// CC is the Cubic configuration (DefaultTCPConfig if zero).
	// Ignored when CCAlgo is set.
	CC cc.CubicConfig
	// CCAlgo selects a congestion controller from the registry by name
	// in its standard configuration, overriding CC. Empty keeps the
	// calibrated Linux-like Cubic. Callers validate the name; an
	// unknown name here panics.
	CCAlgo string
	// RecvBuffer is the receive buffer (advertised window ceiling).
	// 0 means the 6MB desktop default.
	RecvBuffer int
	// ProcDelay is the per-received-segment processing cost. TCP runs in
	// the kernel, so this is small even on phones — the asymmetry with
	// QUIC's userspace processing drives the paper's mobile findings.
	ProcDelay time.Duration
	// DisableDSACK turns off reordering adaptation (ablation: makes TCP
	// behave like QUIC's fixed threshold under reordering).
	DisableDSACK bool
	// IdleTimeout closes connections that receive no segments for this
	// long (classified trace.ReasonIdleTimeout). 0 selects
	// transport.DefaultIdleTimeout; negative disables idle teardown.
	IdleTimeout time.Duration
	// Tracer is the one instrument of this endpoint's connections: it
	// records their events and CC state transitions, carries the
	// collector their time series (cwnd, srtt, outstanding bytes,
	// peer-window headroom) register on, and profiles their stalls if
	// set to (trace.Recorder.Profile). May be nil.
	Tracer *trace.Recorder
	// WireEncode serializes every sent segment into a pooled buffer that
	// rides the emulated network alongside the structured payload; the
	// receiver decodes and verifies the image before releasing the
	// buffer (see DESIGN.md §10). The structured payload remains the
	// source of truth — the wire image is lossy (sequence numbers
	// truncate to 32 bits, windows scale by 8) — so golden runs keep
	// this off.
	WireEncode bool
}

func (c Config) withDefaults() Config {
	if c.CC.MSS == 0 {
		c.CC = cc.DefaultTCPConfig()
	}
	if c.RecvBuffer == 0 {
		c.RecvBuffer = defaultRecvBuffer
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = transport.DefaultIdleTimeout
	}
	return c
}

// Endpoint is a TCP endpoint on the emulated network. It demultiplexes
// connections by (remote, port) pairs; the embedded transport.Endpoint
// owns the connection-record lifecycle.
type Endpoint struct {
	transport.Endpoint[connKey, Conn]
	cfg      Config
	nextPort uint32
}

type connKey struct {
	remote netem.Addr
	port   uint32 // client-chosen connection id
}

// NewEndpoint creates an endpoint attached to the network at addr.
func NewEndpoint(nw *netem.Network, addr netem.Addr, cfg Config) *Endpoint {
	e := &Endpoint{cfg: cfg.withDefaults(), nextPort: 10000 + uint32(addr)}
	e.Attach(nw, addr, e)
	return e
}

// Reset returns the endpoint to the state NewEndpoint(nw, addr, cfg)
// would produce, recycling every connection record onto the endpoint's
// free list (see transport.Endpoint.Reset for the preconditions).
func (e *Endpoint) Reset(cfg Config) {
	e.Endpoint.Reset(retireConn)
	e.cfg = cfg.withDefaults()
	e.nextPort = 10000 + uint32(e.Addr())
}

// Dial opens a connection (TCP 3-way handshake + TLS) to remote. App
// data may be written immediately; it is buffered until the handshake
// completes.
func (e *Endpoint) Dial(remote netem.Addr) *Conn {
	port := e.nextPort
	e.nextPort++
	c := newConn(e, remote, port, true)
	e.Conns[connKey{remote, port}] = c
	c.startHandshake()
	return c
}

// segment is the in-simulator representation of a TCP segment (plus the
// port used for demux).
type segment struct {
	port uint32
	seg  *wire.TCPSegment
}

// HandlePacket implements netem.Handler.
func (e *Endpoint) HandlePacket(pkt *netem.Packet) {
	sp, ok := pkt.Payload.(*segment)
	if !ok {
		return
	}
	// The wrapper's flight ends here; detach its fields and recycle it
	// (the envelope's stale Payload pointer is cleared at pkt.Release).
	port, seg := sp.port, sp.seg
	sp.seg = nil
	wrapPool.Put(sp)
	if w := pkt.TakeWire(); w != nil {
		verifyWire(w, seg)
		w.Release()
	}
	key := connKey{pkt.Src, port}
	c, ok := e.Conns[key]
	if !ok {
		if !e.Listening() || !seg.SYN || seg.ACK {
			return
		}
		c = newConn(e, pkt.Src, port, false)
		e.Accept(key, c)
	}
	c.rx.Receive(seg)
}

// verifyWire decodes a received segment's pooled wire image and checks
// it against the structured payload, modulo the wire format's lossiness
// (32-bit sequence space, window scaling). A mismatch is a programming
// error, so it panics.
func verifyWire(w *netem.PacketBuf, seg *wire.TCPSegment) {
	if len(w.B) != seg.Size() {
		panic(fmt.Sprintf("tcp: wire image is %d bytes, segment size %d", len(w.B), seg.Size()))
	}
	dec, err := wire.DecodeTCPSegment(w.B)
	if err != nil {
		panic("tcp: wire image does not decode: " + err.Error())
	}
	if dec.Seq != seg.Seq&0xffffffff || dec.AckNum != seg.AckNum&0xffffffff ||
		dec.Length != seg.Length || dec.SYN != seg.SYN || dec.ACK != seg.ACK || dec.FIN != seg.FIN {
		panic(fmt.Sprintf("tcp: wire image decoded to %+v, want %+v", dec, seg))
	}
}
