// Package core is the paper's evaluation framework: it builds calibrated
// testbeds (§3.1/§4.1), runs back-to-back paired QUIC/TCP page loads
// across the scenario matrix (Table 2), applies Welch's t-test to decide
// significance (§5.2), and exposes one registered experiment per table
// and figure in the paper (see experiments.go and DESIGN.md §5).
package core

import (
	"math/rand"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/cellular"
	"quiclab/internal/device"
	"quiclab/internal/metrics"
	"quiclab/internal/netem"
	"quiclab/internal/profile"
	"quiclab/internal/proxy"
	"quiclab/internal/quic"
	"quiclab/internal/sim"
	"quiclab/internal/tcp"
	"quiclab/internal/trace"
	"quiclab/internal/web"
)

// Proto selects a transport.
type Proto int

// The two compared stacks.
const (
	QUIC Proto = iota
	TCP
)

func (p Proto) String() string {
	if p == QUIC {
		return "QUIC"
	}
	return "TCP"
}

// ProxyMode selects the §5.5 proxying variants.
type ProxyMode int

// Proxy modes.
const (
	NoProxy ProxyMode = iota
	TCPProxy
	QUICProxy
)

// VarBW describes fluctuating bandwidth (Fig 11).
type VarBW struct {
	MinMbps, MaxMbps float64
	Interval         time.Duration
}

// Scenario is one cell of the paper's test matrix (Table 2).
type Scenario struct {
	Seed int64

	// Network conditions.
	RateMbps   float64 // bottleneck rate; 0 = unlimited
	RTT        time.Duration
	ExtraDelay time.Duration
	LossPct    float64
	Jitter     time.Duration // netem jitter (causes reordering)
	Cell       *cellular.Profile
	VarBW      *VarBW
	QueueBytes int

	// Workload.
	Page web.Page

	// Client device.
	Device device.Profile

	// QUIC knobs (paper's calibration and ablation parameters).
	MACW          int  // max allowed congestion window (0 = 430)
	Connections   int  // N-connection emulation (0 = 2, QUIC 34 default)
	NACKThreshold int  // 0 = 3
	Disable0RTT   bool // Fig 7
	SSThreshBug   bool // the Chromium-52 server bug (§4.1)
	NoHyStart     bool // ablation
	NoPacing      bool // ablation
	// CCAlgo selects a registry congestion controller by name for both
	// transports (cc.Algorithms lists them), overriding the calibrated
	// defaults. Empty keeps the per-transport calibration (gQUIC-34
	// Cubic / Linux Cubic).
	CCAlgo string
	// TimeLossDetection / AdaptiveNACK select the reordering-tolerant
	// loss detectors the QUIC team was experimenting with (§5.2) —
	// quiclab implements both as extensions; see the ablations
	// experiment.
	TimeLossDetection bool
	AdaptiveNACK      bool

	// TCP knobs.
	TCPConns     int // parallel connections (0 = 1, HTTP/2 style)
	DisableDSACK bool

	// Proxying (§5.5).
	Proxy ProxyMode

	// ServiceWait, if non-nil, adds a per-request server-side wait
	// before responses (the Fig 2 GAE emulation).
	ServiceWait func() time.Duration

	// Faults, if non-nil, is a deterministic fault schedule applied to
	// every link in the topology (both directions): rate/delay/loss
	// steps, outage windows, burst-loss episodes. Each injection is
	// recorded on the server tracer as a fault_injected event/counter.
	Faults *netem.Schedule

	// TraceEvents enables qlog-style per-packet event recording on both
	// endpoints; Result then carries full event logs (ServerTrace and
	// ClientTrace) suitable for trace.WriteJSONL / trace.Summarize.
	TraceEvents bool

	// Metrics enables sampled time-series collection: the server
	// endpoint's congestion control, RTT estimator, in-flight and
	// flow-control series, plus per-link queue depth and cumulative
	// drops. Result then carries the collector. Collection is passive —
	// it never perturbs the packet schedule — so enabling it leaves
	// rendered experiment output byte-identical.
	Metrics bool
	// MetricsCadence overrides the 1 ms default coalescing cadence
	// (metrics.DefaultCadence). Negative cadences are invalid (CLIs
	// validate and exit 2 before reaching this).
	MetricsCadence time.Duration

	// Profile enables per-connection stall attribution on the server
	// endpoint (internal/profile): Result then carries a Budget per
	// server connection decomposing its lifetime into exclusive states
	// (handshake, cwnd-limited, flow-control-blocked, ...). Passive,
	// like Metrics — rendered experiment output stays byte-identical.
	Profile bool

	// WireEncode makes both transports serialize every packet into a
	// pooled wire buffer and the receiver decode-verify it (equivalence
	// checking of the append-style encoders under real traffic). Off in
	// golden runs: it changes allocation behavior only, never event
	// order, but there is no reason to pay encode cost in sweeps.
	WireEncode bool
}

// Addresses in every testbed topology.
const (
	clientAddr netem.Addr = 1
	serverAddr netem.Addr = 2
	proxyAddr  netem.Addr = 3
)

// DefaultRTT is the paper's baseline emulated RTT.
const DefaultRTT = 36 * time.Millisecond

func (sc Scenario) rtt() time.Duration {
	r := sc.RTT
	if r == 0 {
		r = DefaultRTT
	}
	return r + sc.ExtraDelay
}

// linkConfig builds one direction of the end-to-end path.
func (sc Scenario) linkConfig() netem.Config {
	return netem.Config{
		RateBps:    int64(sc.RateMbps * 1e6),
		Delay:      sc.rtt() / 2,
		Jitter:     sc.Jitter,
		LossProb:   sc.LossPct / 100,
		QueueBytes: sc.QueueBytes,
	}
}

// quicConfig assembles the server-side QUIC configuration from the
// scenario's calibration knobs.
func (sc Scenario) quicConfig(tracer *trace.Recorder, coll *metrics.Collector) quic.Config {
	ccCfg := cc.DefaultQUICConfig()
	ccCfg.MSS = quic.MaxPacketSize
	if sc.MACW != 0 {
		ccCfg.MaxCwndPackets = sc.MACW
	}
	if sc.Connections != 0 {
		ccCfg.Connections = sc.Connections
	}
	if sc.SSThreshBug {
		// The Chromium-52 bug: ssthresh never raised to the receiver's
		// advertised buffer, so slow start exits at a fixed low ceiling.
		ccCfg.InitialSSThreshPackets = 100
	}
	if sc.NoHyStart {
		ccCfg.HyStart = false
	}
	if sc.NoPacing {
		ccCfg.Pacing = false
	}
	return quic.Config{
		WireEncode:        sc.WireEncode,
		CC:                ccCfg,
		CCAlgo:            sc.CCAlgo,
		NACKThreshold:     sc.NACKThreshold,
		TimeLossDetection: sc.TimeLossDetection,
		AdaptiveNACK:      sc.AdaptiveNACK,
		Tracer:            tracer,
		Metrics:           coll,
	}
}

func (sc Scenario) tcpServerConfig(tracer *trace.Recorder, coll *metrics.Collector) tcp.Config {
	return tcp.Config{DisableDSACK: sc.DisableDSACK, CCAlgo: sc.CCAlgo, Tracer: tracer, Metrics: coll, WireEncode: sc.WireEncode}
}

// Result is one measured page load.
type Result struct {
	PLT       time.Duration
	Completed bool
	// FailureReason classifies why an incomplete run failed (FailNone
	// when Completed).
	FailureReason FailureReason
	// ServerTrace is the instrumented server-side recorder (CC states,
	// counters, and — with Scenario.TraceEvents — the per-packet event
	// log).
	ServerTrace *trace.Recorder
	// ClientTrace is the client-side recorder; non-nil only when
	// Scenario.TraceEvents is set.
	ClientTrace *trace.Recorder
	// EndTime is the virtual time at completion (for time-in-state).
	EndTime time.Duration
	// Metrics is the server-side time-series collector (cc, transport,
	// flow-control, and per-link series); non-nil only when
	// Scenario.Metrics is set.
	Metrics *metrics.Collector
	// Budgets holds one stall-attribution budget per server-side
	// connection, in creation order; non-empty only when
	// Scenario.Profile is set.
	Budgets []profile.Budget

	// sim is the run's simulator, kept so the chaos harness can verify
	// the event queue drains after the measured load ends.
	sim *sim.Simulator

	// tb is the testbed the run executed on, retained so engine callers
	// can recycle it once the Result has been fully consumed.
	tb *testbed
}

// release parks the run's testbed on its worker pool for reuse, if it
// came from one (no-op otherwise). After release the Result's traces,
// collector, and simulator belong to the next run — callers invoke it
// last, once everything has been extracted.
func (r Result) release() {
	if r.tb != nil && r.tb.pool != nil {
		r.tb.pool.put(r.tb)
	}
}

// ServerSummary rolls the server-side event log up into per-run metrics
// (zero Summary when TraceEvents was off).
func (r Result) ServerSummary() trace.Summary {
	return r.ServerTrace.Summary(r.EndTime)
}

// testbed is one constructed topology plus the run-scoped machinery that
// survives recycling: recorders, collector, endpoints, and scratch space.
type testbed struct {
	sim      *sim.Simulator
	net      *netem.Network
	down, up []*netem.Link // client-facing first
	varier   *netem.Varier

	// Pool bookkeeping (zero when built outside the matrix engine).
	shape tbShape
	pool  *tbPool

	// Recorders and collector, created at first build and Reset between
	// runs. tracer is always non-nil; clientTracer only with TraceEvents,
	// coll only with Metrics (all fixed by the shape).
	tracer       *trace.Recorder
	clientTracer *trace.Recorder
	coll         *metrics.Collector

	// Endpoints persist across runs via Endpoint.Reset; which pair is
	// populated is fixed by the shape's protocol.
	qsrvEP, qcliEP *quic.Endpoint
	tsrvEP, tcliEP *tcp.Endpoint

	// revScratch is reused for the reversed uplink path in bypassProxy.
	revScratch []*netem.Link
}

// instrument attaches queue-depth and cumulative-drop series to every
// link in the topology. Link order is fixed by newTestbed (client-facing
// first), so series registration order — and therefore serialized bundle
// output — is deterministic.
func (tb *testbed) instrument(coll *metrics.Collector) {
	for i, l := range tb.down {
		name := "down" + string(rune('0'+i))
		l.Instrument(
			coll.Series(metrics.LinkQueueSeries(name), metrics.KindBytes),
			coll.Series(metrics.LinkDropsSeries(name), metrics.KindCount))
	}
	for i, l := range tb.up {
		name := "up" + string(rune('0'+i))
		l.Instrument(
			coll.Series(metrics.LinkQueueSeries(name), metrics.KindBytes),
			coll.Series(metrics.LinkDropsSeries(name), metrics.KindCount))
	}
}

// newTestbed allocates the objects a shape calls for — simulator, network,
// one link pair (two when proxied, client-facing first), recorders,
// collector — unconfigured: Scenario.wire configures fresh and recycled
// testbeds alike.
func newTestbed(shape tbShape, seed int64) *testbed {
	s := sim.New(seed)
	tb := &testbed{sim: s, net: netem.NewNetwork(s), shape: shape, tracer: trace.New()}
	hops := 1
	if shape.proxied {
		hops = 2
	}
	tb.down, tb.up = make([]*netem.Link, hops), make([]*netem.Link, hops)
	for i := range tb.down {
		tb.down[i], tb.up[i] = netem.NewLink(s, netem.Config{}), netem.NewLink(s, netem.Config{})
	}
	if shape.detailed {
		tb.tracer, tb.clientTracer = trace.NewDetailed(), trace.NewDetailed()
	}
	if shape.metrics {
		tb.coll = metrics.New(shape.cadence, 0)
	}
	return tb
}

// wire applies the scenario to a testbed of its shape whose machinery is
// new or reset: links take their configs, the network learns the paths —
// direct two-node, or client-proxy-origin with the proxy equidistant
// (Fig 16) — the rate varier starts, and the link series attach.
func (sc Scenario) wire(tb *testbed) {
	down := sc.linkConfig()
	up := down
	switch {
	case sc.Cell != nil:
		down, up = sc.Cell.LinkConfig(true), sc.Cell.LinkConfig(false)
	case tb.shape.proxied:
		// Two halves, each with half the delay and (approximately) half
		// the loss, so the end-to-end path matches the direct topology.
		down.Delay /= 2
		down.LossProb /= 2
		up = down
	}
	for i := range tb.down {
		tb.down[i].Reset(down)
		tb.up[i].Reset(up)
	}
	if tb.shape.proxied {
		tb.net.SetPath(proxyAddr, clientAddr, tb.down[0])
		tb.net.SetPath(clientAddr, proxyAddr, tb.up[0])
		tb.net.SetPath(serverAddr, proxyAddr, tb.down[1])
		tb.net.SetPath(proxyAddr, serverAddr, tb.up[1])
	} else {
		tb.net.SetPath(serverAddr, clientAddr, tb.down[0])
		tb.net.SetPath(clientAddr, serverAddr, tb.up[0])
	}
	if sc.VarBW != nil && sc.Cell == nil {
		all := append(append([]*netem.Link{}, tb.down...), tb.up...)
		tb.varier = netem.VaryRate(tb.sim, sc.VarBW.Interval,
			int64(sc.VarBW.MinMbps*1e6), int64(sc.VarBW.MaxMbps*1e6), all...)
	}
	if tb.coll != nil {
		tb.instrument(tb.coll) // Link.Reset detached the series
	}
}

// bypassProxy wires client and origin directly across both halves of a
// proxied topology, for the protocol the scenario's proxy cannot carry.
func (tb *testbed) bypassProxy() {
	tb.net.SetPath(serverAddr, clientAddr, tb.down...)
	rev := tb.revScratch[:0]
	for i := range tb.up {
		rev = append(rev, tb.up[len(tb.up)-1-i])
	}
	tb.revScratch = rev
	tb.net.SetPath(clientAddr, serverAddr, rev...)
}

// deadline picks a generous completion deadline for a page load.
func (sc Scenario) deadline() time.Duration {
	rate := sc.RateMbps
	if sc.Cell != nil {
		rate = sc.Cell.ThroughputMbps
	}
	if sc.VarBW != nil {
		rate = sc.VarBW.MinMbps
	}
	if rate <= 0 {
		return 120 * time.Second
	}
	ideal := time.Duration(float64(sc.Page.TotalBytes()*8) / (rate * 1e6) * float64(time.Second))
	d := 30*time.Second + 20*ideal
	if d > 30*time.Minute {
		d = 30 * time.Minute
	}
	return d
}

// RunPLT measures one page load with the given protocol. The QUIC client
// performs an unmeasured warmup fetch first so the measured load uses
// 0-RTT, matching the paper's methodology of never clearing 0-RTT state
// (unless Disable0RTT is set).
func (sc Scenario) RunPLT(proto Proto, seed int64) Result {
	return sc.runPLT(proto, seed, nil)
}

// runPLT is RunPLT with an optional worker testbed pool: with tp non-nil
// the run executes on a Reset-recycled testbed of the scenario's shape
// when one is parked, and the Result carries the testbed for release()
// once the caller has consumed it.
func (sc Scenario) runPLT(proto Proto, seed int64, tp *tbPool) Result {
	tb := sc.acquire(proto, seed, tp)
	tracer := tb.tracer
	clientTracer := tb.clientTracer
	coll := tb.coll
	res := Result{PLT: -1, ClientTrace: clientTracer, Metrics: coll, sim: tb.sim, tb: tb}

	if sc.Faults != nil {
		links := append(append([]*netem.Link{}, tb.down...), tb.up...)
		sc.Faults.Start(tb.sim, func(t time.Duration, desc string) {
			tracer.FaultInjected(t, desc)
			tracer.Count("fault_injected")
		}, links...)
	}

	// onError classifies the first abnormal teardown of a page-load
	// connection and ends the run: the load can never complete after one.
	onError := func(reason string) {
		if res.Completed || res.FailureReason != FailNone {
			return
		}
		res.FailureReason = classifyFailure(reason)
		res.EndTime = tb.sim.Now()
		tb.sim.Stop()
	}

	target := serverAddr
	if sc.Proxy != NoProxy {
		target = proxyAddr
	}

	switch proto {
	case QUIC:
		srvCfg := sc.quicConfig(tracer, coll)
		srvCfg.Profile = sc.Profile
		if tb.qsrvEP == nil {
			tb.qsrvEP = quic.NewEndpoint(tb.net, serverAddr, srvCfg)
		} else {
			tb.qsrvEP.Reset(srvCfg)
		}
		srv := web.StartQUICServerOn(tb.qsrvEP, sc.Page.ObjectSize)
		srv.ServiceWait = sc.ServiceWait
		if sc.Proxy == QUICProxy {
			pxCfg := sc.quicConfig(nil, nil)
			proxy.StartQUICProxy(tb.net, proxyAddr, pxCfg, serverAddr)
		} else if sc.Proxy == TCPProxy {
			// QUIC cannot be proxied by a TCP proxy: connect direct.
			target = serverAddr
			tb.bypassProxy()
		}
		cliCfg := sc.quicConfig(clientTracer, nil)
		cliCfg.Disable0RTT = sc.Disable0RTT
		cliCfg = sc.Device.ApplyQUIC(cliCfg)
		if tb.qcliEP == nil {
			tb.qcliEP = quic.NewEndpoint(tb.net, clientAddr, cliCfg)
		} else {
			tb.qcliEP.Reset(cliCfg)
		}
		f := web.NewQUICFetcherOn(tb.qcliEP, target)
		f.OnError = onError
		measure := func() {
			srv.ObjectSize = sc.Page.ObjectSize
			f.LoadPage(sc.Page, func(plt time.Duration) {
				res.PLT = plt
				res.Completed = true
				res.EndTime = tb.sim.Now()
				tb.sim.Stop()
			})
		}
		if sc.Disable0RTT {
			measure()
		} else {
			// Warmup: tiny fetch to populate the session cache.
			srv.ObjectSize = 1000
			f.LoadPage(web.Page{NumObjects: 1, ObjectSize: 1000}, func(time.Duration) {
				measure()
			})
		}
	case TCP:
		tsrvCfg := sc.tcpServerConfig(tracer, coll)
		tsrvCfg.Profile = sc.Profile
		if tb.tsrvEP == nil {
			tb.tsrvEP = tcp.NewEndpoint(tb.net, serverAddr, tsrvCfg)
		} else {
			tb.tsrvEP.Reset(tsrvCfg)
		}
		tsrv := web.StartTCPServerOn(tb.tsrvEP, sc.Page.ObjectSize)
		tsrv.ServiceWait = sc.ServiceWait
		if sc.Proxy == TCPProxy {
			proxy.StartTCPProxy(tb.net, proxyAddr, tcp.Config{}, serverAddr)
		} else if sc.Proxy == QUICProxy {
			// TCP through a QUIC proxy is not possible: direct.
			target = serverAddr
			tb.bypassProxy()
		}
		cliCfg := sc.Device.ApplyTCP(tcp.Config{Tracer: clientTracer, WireEncode: sc.WireEncode})
		if tb.tcliEP == nil {
			tb.tcliEP = tcp.NewEndpoint(tb.net, clientAddr, cliCfg)
		} else {
			tb.tcliEP.Reset(cliCfg)
		}
		f := web.NewTCPFetcherOn(tb.tcliEP, target)
		f.OnError = onError
		if sc.TCPConns > 0 {
			f.MaxConns = sc.TCPConns
		}
		f.LoadPage(sc.Page, func(plt time.Duration) {
			res.PLT = plt
			res.Completed = true
			res.EndTime = tb.sim.Now()
			tb.sim.Stop()
		})
	}

	tb.sim.RunUntil(sc.deadline())
	if tb.varier != nil {
		tb.varier.Stop()
	}
	res.ServerTrace = tracer
	if !res.Completed {
		// PLT is clamped to the deadline for incomplete runs, so means
		// stay finite and comparable.
		res.PLT = sc.deadline()
		if res.FailureReason == FailNone {
			res.FailureReason = FailDeadline
			res.EndTime = tb.sim.Now()
		}
	}
	if sc.Profile {
		// Budgets must be extracted before release() recycles the
		// testbed (and with it the endpoints' profiler lists).
		switch proto {
		case QUIC:
			res.Budgets = tb.qsrvEP.Budgets(res.EndTime)
		case TCP:
			res.Budgets = tb.tsrvEP.Budgets(res.EndTime)
		}
	}
	return res
}

// Comparison is a paired QUIC-vs-TCP measurement over multiple rounds.
type Comparison struct {
	QUICMean, TCPMean time.Duration
	PctDiff           float64 // positive = QUIC faster
	P                 float64
	Significant       bool
	Rounds            int
	// Incomplete counts individual runs (up to 2 per round, one per
	// protocol) that failed to complete; Failures breaks them down by
	// classified reason (sum of Failures == Incomplete).
	Incomplete int
	Failures   map[FailureReason]int
}

// perturbed returns a copy of the scenario with a small per-round RTT
// variation (±4%), emulating the run-to-run path noise of the paper's
// physical testbed. Both protocols in a round see the same perturbation
// (back-to-back pairing), so it adds honest between-round variance
// without biasing the comparison — this is what lets Welch's t-test mark
// hair-thin differences as insignificant instead of everything being
// "significant" in a perfectly sterile simulation.
func (sc Scenario) perturbed(round int) Scenario {
	r := rand.New(rand.NewSource(sc.Seed*7919 + int64(round)))
	f := 1 + (r.Float64()*2-1)*0.04
	out := sc
	out.RTT = time.Duration(float64(sc.rtt()) * f)
	out.ExtraDelay = 0
	return out
}
