// Package web models the paper's web workload: simple pages of N objects
// x S bytes served over QUIC or over HTTP/2+TLS+TCP, and a page-load
// client measuring PLT (time from navigation to the last byte of the
// last object, connection establishment included, no DNS — exactly the
// paper's §3.3 metric).
//
// Pages are static and script-free by construction, mirroring the
// paper's choice to isolate transport efficiency from browser behaviour.
package web

import (
	"time"

	"quiclab/internal/netem"
	"quiclab/internal/quic"
	"quiclab/internal/sim"
	"quiclab/internal/tcp"
	"quiclab/internal/wire"
)

// Page is a synthetic page: NumObjects objects of ObjectSize bytes each.
type Page struct {
	NumObjects int
	ObjectSize int
}

// TotalBytes returns the page's payload size.
func (p Page) TotalBytes() int { return p.NumObjects * p.ObjectSize }

// Protocol-level request/response framing constants.
const (
	// RequestSize approximates HTTP/2 request headers (HPACK-compressed).
	RequestSize = 300
	// ResponseHeaderSize approximates HTTP/2 response headers + frame
	// overhead per object.
	ResponseHeaderSize = 120
)

// TLSBytes returns the on-stream size of n application bytes after TLS
// record framing (TCP path only; QUIC encrypts per-packet and its header
// overhead is part of the packet format).
func TLSBytes(n int) int {
	if n <= 0 {
		return n
	}
	records := (n + 16383) / 16384
	return n + records*wire.TLSRecordOverhead
}

// responseBytes is the stream-level size of one object response.
func responseBytes(objectSize int) int { return ResponseHeaderSize + objectSize }

// --- QUIC server and fetcher --------------------------------------------

// QUICServer serves fixed-size objects: every stream whose request
// completes receives ObjectSize bytes (plus response headers), optionally
// after a service wait (the paper's Fig 2 GAE emulation).
type QUICServer struct {
	EP *quic.Endpoint
	// ObjectSize is the response body size.
	ObjectSize int
	// ServiceWait, if non-nil, returns a per-request server-side wait
	// before the response is written.
	ServiceWait func() time.Duration
	sim         *sim.Simulator
}

// StartQUICServer creates and starts a QUIC object server on nw at addr.
func StartQUICServer(nw *netem.Network, addr netem.Addr, cfg quic.Config, objectSize int) *QUICServer {
	return StartQUICServerOn(quic.NewEndpoint(nw, addr, cfg), objectSize)
}

// StartQUICServerOn starts a QUIC object server on an existing endpoint —
// freshly created, or recycled via Endpoint.Reset for testbed reuse.
func StartQUICServerOn(ep *quic.Endpoint, objectSize int) *QUICServer {
	s := &QUICServer{
		EP:         ep,
		ObjectSize: objectSize,
		sim:        ep.Sim(),
	}
	s.EP.Listen(func(c *quic.Conn) {
		c.OnStream = func(st *quic.Stream) {
			st.OnData = func(_ int, done bool) {
				if !done {
					return
				}
				respond := func() { st.Write(responseBytes(s.ObjectSize), true) }
				if s.ServiceWait != nil {
					s.sim.Schedule(s.ServiceWait(), respond)
				} else {
					respond()
				}
			}
		}
	})
	return s
}

// ResourceTiming is one object's load timing — the HAR-style record the
// paper extracted from Chrome's debugging protocol (§3.3) to compute PLT
// and verify which protocol served each object.
type ResourceTiming struct {
	Index     int
	Start     time.Duration // request issued (virtual time)
	FirstByte time.Duration // first response byte consumed
	End       time.Duration // last byte consumed
	Bytes     int
	Protocol  string
}

// TTFB returns the time to first byte.
func (r ResourceTiming) TTFB() time.Duration { return r.FirstByte - r.Start }

// Duration returns the total fetch duration.
func (r ResourceTiming) Duration() time.Duration { return r.End - r.Start }

// QUICFetcher loads pages over QUIC, one fresh connection per page load
// (0-RTT session state persists across loads on the same endpoint, as in
// the paper's methodology).
type QUICFetcher struct {
	EP     *quic.Endpoint
	Server netem.Addr
	// OnError, if set, observes abnormal teardowns of page-load
	// connections with the classified reason (trace.Reason* values).
	// The page load will never complete once it fires.
	OnError func(reason string)
	sim     *sim.Simulator
}

// NewQUICFetcher creates a page-load client at addr.
func NewQUICFetcher(nw *netem.Network, addr netem.Addr, cfg quic.Config, server netem.Addr) *QUICFetcher {
	return NewQUICFetcherOn(quic.NewEndpoint(nw, addr, cfg), server)
}

// NewQUICFetcherOn creates a page-load client on an existing endpoint —
// freshly created, or recycled via Endpoint.Reset for testbed reuse.
func NewQUICFetcherOn(ep *quic.Endpoint, server netem.Addr) *QUICFetcher {
	return &QUICFetcher{
		EP:     ep,
		Server: server,
		sim:    ep.Sim(),
	}
}

// LoadPage fetches every object of page and calls onDone with the PLT.
// Objects are multiplexed as streams on a single connection, respecting
// the server's MaxStreamsPerConnection (excess requests queue, as the
// browser does).
func (f *QUICFetcher) LoadPage(page Page, onDone func(plt time.Duration)) {
	f.LoadPageTimings(page, func(plt time.Duration, _ []ResourceTiming) { onDone(plt) })
}

// LoadPageTimings is LoadPage plus per-object resource timings (the
// HAR-style records the paper extracted from Chrome).
func (f *QUICFetcher) LoadPageTimings(page Page, onDone func(plt time.Duration, timings []ResourceTiming)) {
	start := f.sim.Now()
	conn := f.EP.Dial(f.Server)
	if f.OnError != nil {
		conn.OnClosed = f.OnError
	}
	timings := make([]ResourceTiming, page.NumObjects)
	launched, pending := 0, page.NumObjects
	var launch func()
	launch = func() {
		for launched < page.NumObjects && conn.CanOpenStream() {
			st, err := conn.OpenStream()
			if err != nil {
				return
			}
			idx := launched
			launched++
			timings[idx] = ResourceTiming{Index: idx, Start: f.sim.Now(), Protocol: "quic"}
			st.OnData = func(delta int, done bool) {
				tr := &timings[idx]
				if tr.FirstByte == 0 && delta > 0 {
					tr.FirstByte = f.sim.Now()
				}
				tr.Bytes += delta
				if !done {
					return
				}
				tr.End = f.sim.Now()
				pending--
				if pending == 0 {
					conn.Close()
					onDone(f.sim.Now()-start, timings)
					return
				}
				launch()
			}
			st.Write(RequestSize, true)
		}
	}
	conn.OnConnected(launch)
}

// --- TCP server and fetcher ----------------------------------------------

// TCPServer serves fixed-size objects over the HTTP/2-like multiplexed
// bytestream: each complete request is answered, in order, with one
// response (HOL blocking is inherent to the single ordered stream).
type TCPServer struct {
	EP          *tcp.Endpoint
	ObjectSize  int
	ServiceWait func() time.Duration
	sim         *sim.Simulator
}

// StartTCPServer creates and starts a TCP object server on nw at addr.
func StartTCPServer(nw *netem.Network, addr netem.Addr, cfg tcp.Config, objectSize int) *TCPServer {
	return StartTCPServerOn(tcp.NewEndpoint(nw, addr, cfg), objectSize)
}

// StartTCPServerOn starts a TCP object server on an existing endpoint —
// freshly created, or recycled via Endpoint.Reset for testbed reuse.
func StartTCPServerOn(ep *tcp.Endpoint, objectSize int) *TCPServer {
	s := &TCPServer{
		EP:         ep,
		ObjectSize: objectSize,
		sim:        ep.Sim(),
	}
	s.EP.Listen(func(c *tcp.Conn) {
		reqBytes := TLSBytes(RequestSize)
		buffered := 0
		c.OnData = func(delta int) {
			buffered += delta
			for buffered >= reqBytes {
				buffered -= reqBytes
				respond := func() { c.Write(TLSBytes(responseBytes(s.ObjectSize))) }
				if s.ServiceWait != nil {
					s.sim.Schedule(s.ServiceWait(), respond)
				} else {
					respond()
				}
			}
		}
	})
	return s
}

// TCPFetcher loads pages over HTTP/2+TLS+TCP. MaxConns controls how many
// parallel connections the client opens (HTTP/2 browsers use one per
// origin; set >1 for HTTP/1.1-style ablations).
type TCPFetcher struct {
	EP       *tcp.Endpoint
	Server   netem.Addr
	MaxConns int
	// OnError, if set, observes abnormal teardowns of page-load
	// connections with the classified reason (trace.Reason* values).
	// The page load will never complete once it fires.
	OnError func(reason string)
	sim     *sim.Simulator
}

// NewTCPFetcher creates a TCP page-load client at addr.
func NewTCPFetcher(nw *netem.Network, addr netem.Addr, cfg tcp.Config, server netem.Addr) *TCPFetcher {
	return NewTCPFetcherOn(tcp.NewEndpoint(nw, addr, cfg), server)
}

// NewTCPFetcherOn creates a TCP page-load client on an existing endpoint —
// freshly created, or recycled via Endpoint.Reset for testbed reuse.
func NewTCPFetcherOn(ep *tcp.Endpoint, server netem.Addr) *TCPFetcher {
	return &TCPFetcher{
		EP:       ep,
		Server:   server,
		MaxConns: 1,
		sim:      ep.Sim(),
	}
}

// LoadPage fetches the page and reports PLT. Objects are spread evenly
// across MaxConns fresh connections (1 = HTTP/2 single connection); all
// requests on a connection are pipelined up front, responses arrive in
// order.
func (f *TCPFetcher) LoadPage(page Page, onDone func(plt time.Duration)) {
	f.LoadPageTimings(page, func(plt time.Duration, _ []ResourceTiming) { onDone(plt) })
}

// LoadPageTimings is LoadPage plus per-object resource timings. On the
// ordered bytestream, object k's bytes arrive strictly after object
// k-1's (head-of-line blocking made visible in the timings).
func (f *TCPFetcher) LoadPageTimings(page Page, onDone func(plt time.Duration, timings []ResourceTiming)) {
	start := f.sim.Now()
	conns := f.MaxConns
	if conns < 1 {
		conns = 1
	}
	if conns > page.NumObjects {
		conns = page.NumObjects
	}
	timings := make([]ResourceTiming, page.NumObjects)
	remaining := conns
	respBytes := TLSBytes(responseBytes(page.ObjectSize))
	for i := 0; i < conns; i++ {
		// Objects i, i+conns, i+2*conns, ...
		count := (page.NumObjects - i + conns - 1) / conns
		objIdx := make([]int, 0, count)
		for k := i; k < page.NumObjects; k += conns {
			objIdx = append(objIdx, k)
		}
		conn := f.EP.Dial(f.Server)
		if f.OnError != nil {
			conn.OnClosed = f.OnError
		}
		need := count * respBytes
		got := 0
		cur := 0 // object being received on this connection
		for _, k := range objIdx {
			timings[k] = ResourceTiming{Index: k, Start: start, Protocol: "tcp"}
		}
		conn.OnData = func(delta int) {
			if got < 0 {
				return
			}
			for delta > 0 && cur < len(objIdx) {
				tr := &timings[objIdx[cur]]
				if tr.FirstByte == 0 {
					tr.FirstByte = f.sim.Now()
				}
				take := delta
				if room := respBytes - tr.Bytes; take > room {
					take = room
				}
				tr.Bytes += take
				got += take
				delta -= take
				if tr.Bytes >= respBytes {
					tr.End = f.sim.Now()
					cur++
				}
			}
			if got >= need {
				got = -1 << 40 // fire once
				conn.Close()
				remaining--
				if remaining == 0 {
					onDone(f.sim.Now()-start, timings)
				}
			}
		}
		reqs := count
		conn.OnConnected(func() {
			conn.Write(TLSBytes(RequestSize) * reqs)
		})
	}
}
