// Package core is the paper's evaluation framework: it builds calibrated
// testbeds (§3.1/§4.1), runs back-to-back paired QUIC/TCP page loads
// across the scenario matrix (Table 2), applies Welch's t-test to decide
// significance (§5.2), and exposes one registered experiment per table
// and figure in the paper (see experiments.go and DESIGN.md §5).
package core

import (
	"fmt"
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
func (sc Scenario) quicConfig(tracer *trace.Recorder) quic.Config {
	ccCfg := cc.DefaultQUICConfig()
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
	}
}

// Result is one transport run as the engine observes it: a page load, or
// flow 0 of a bulk, video or fairness run (PLT zero, Budgets every flow's).
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

// ServerSummary rolls the server-side trace up into per-run metrics
// (without TraceEvents, only the counts and rates: see
// trace.Recorder.Summary).
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

	// flows are the client/server pairs sharing the path, as many as the
	// shape says; a one-flow testbed's is one, so it allocates no slice.
	flows []tbFlow
	one   [1]tbFlow

	// revScratch is reused for the reversed uplink path in bypassProxy.
	revScratch []*netem.Link
}

// tbFlow is one client/server pair of a testbed. Its recorders are
// created at first build and Reset between runs: tracer always, and on
// flow 0 alone (the flow a Result describes) clientTracer with
// TraceEvents and, with Metrics, a collector on tracer. Endpoints are
// created the first time the flow runs their transport and Reset after.
type tbFlow struct {
	cli, srv     netem.Addr
	tracer       *trace.Recorder
	clientTracer *trace.Recorder
	qsrv, qcli   *quic.Endpoint
	tsrv, tcli   *tcp.Endpoint
}

// flowAddrs numbers flow i of n: a lone flow is the page-load pair, and
// flows sharing a bottleneck are clients 10+i and servers 100+i.
// Addresses seed connection IDs and ports, so they are part of the output.
func flowAddrs(i, n int) (cli, srv netem.Addr) {
	if n == 1 {
		return clientAddr, serverAddr
	}
	return netem.Addr(10 + i), netem.Addr(100 + i)
}

// instrument attaches queue-depth and cumulative-drop series on tr's
// collector to every link in the topology. Link order is fixed by
// newTestbed (client-facing first), so series registration order — and
// therefore serialized bundle output — is deterministic.
func (tb *testbed) instrument(tr *trace.Recorder) {
	for d, links := range [2][]*netem.Link{tb.down, tb.up} {
		for i, l := range links {
			name := [2]string{"down", "up"}[d] + string(rune('0'+i))
			l.Instrument(
				tr.Series(metrics.LinkQueueSeries(name), metrics.KindBytes),
				tr.Series(metrics.LinkDropsSeries(name), metrics.KindCount))
		}
	}
}

// newTestbed allocates the objects a shape calls for — simulator, network,
// one link pair (two when proxied, client-facing first), the flows'
// recorders and flow 0's collector — unconfigured: Scenario.wire
// configures fresh and recycled testbeds alike.
func newTestbed(shape tbShape, seed int64) *testbed {
	s := sim.New(seed)
	tb := &testbed{sim: s, net: netem.NewNetwork(s), shape: shape}
	hops := 1
	if shape.proxied {
		hops = 2
	}
	tb.down, tb.up = make([]*netem.Link, hops), make([]*netem.Link, hops)
	for i := range tb.down {
		tb.down[i], tb.up[i] = netem.NewLink(s, netem.Config{}), netem.NewLink(s, netem.Config{})
	}
	tb.flows = tb.one[:]
	if shape.flows > 1 {
		tb.flows = make([]tbFlow, shape.flows)
	}
	for i := range tb.flows {
		fl := &tb.flows[i]
		fl.cli, fl.srv = flowAddrs(i, len(tb.flows))
		fl.tracer = trace.New()
	}
	lead := &tb.flows[0]
	if shape.detailed {
		lead.tracer, lead.clientTracer = trace.NewDetailed(), trace.NewDetailed()
	}
	if shape.metrics {
		lead.tracer.Metrics = metrics.New(metrics.DefaultCadence, 0)
	}
	return tb
}

// wire applies the scenario to a testbed of its shape whose machinery is
// new or reset: links take their configs, the network learns the paths —
// every flow over the one link pair, or client-proxy-origin with the
// proxy equidistant (Fig 16) — the rate varier starts, the link series
// attach, and the fault schedule starts, recording on flow 0's server.
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
		for _, fl := range tb.flows {
			tb.net.SetPath(fl.srv, fl.cli, tb.down[0])
			tb.net.SetPath(fl.cli, fl.srv, tb.up[0])
		}
	}
	if sc.VarBW != nil && sc.Cell == nil {
		all := append(append([]*netem.Link{}, tb.down...), tb.up...)
		tb.varier = netem.VaryRate(tb.sim, sc.VarBW.Interval,
			int64(sc.VarBW.MinMbps*1e6), int64(sc.VarBW.MaxMbps*1e6), all...)
	}
	if lead := tb.flows[0].tracer; lead.Metrics != nil {
		tb.instrument(lead) // Link.Reset detached the series
	}
	if sc.Faults != nil {
		tracer := tb.flows[0].tracer
		links := append(append([]*netem.Link{}, tb.down...), tb.up...)
		sc.Faults.Start(tb.sim, tracer.FaultInjected, links...)
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

// serveQUIC readies flow i's QUIC endpoints for the scenario and starts
// an object server on the server's, answering every request with
// objectSize bytes. The server runs controller ccAlgo and records into the
// flow's recorder, which profiles with Scenario.Profile; the client runs
// the scenario's controller and takes the device's processing costs and
// windows.
func (sc Scenario) serveQUIC(tb *testbed, i, objectSize int, ccAlgo string) (*web.QUICServer, *quic.Endpoint) {
	fl := &tb.flows[i]
	fl.tracer.Profile = sc.Profile
	srvCfg := sc.quicConfig(fl.tracer)
	srvCfg.CCAlgo = ccAlgo
	if fl.qsrv == nil {
		fl.qsrv = quic.NewEndpoint(tb.net, fl.srv, srvCfg)
	} else {
		fl.qsrv.Reset(srvCfg)
	}
	cliCfg := sc.quicConfig(fl.clientTracer)
	cliCfg.Disable0RTT = sc.Disable0RTT
	cliCfg = sc.Device.ApplyQUIC(cliCfg)
	if fl.qcli == nil {
		fl.qcli = quic.NewEndpoint(tb.net, fl.cli, cliCfg)
	} else {
		fl.qcli.Reset(cliCfg)
	}
	return web.StartQUICServerOn(fl.qsrv, objectSize), fl.qcli
}

// serveTCP is serveQUIC for TCP.
func (sc Scenario) serveTCP(tb *testbed, i, objectSize int, ccAlgo string) (*web.TCPServer, *tcp.Endpoint) {
	fl := &tb.flows[i]
	fl.tracer.Profile = sc.Profile
	srvCfg := tcp.Config{DisableDSACK: sc.DisableDSACK, CCAlgo: ccAlgo, Tracer: fl.tracer, WireEncode: sc.WireEncode}
	if fl.tsrv == nil {
		fl.tsrv = tcp.NewEndpoint(tb.net, fl.srv, srvCfg)
	} else {
		fl.tsrv.Reset(srvCfg)
	}
	cliCfg := sc.Device.ApplyTCP(tcp.Config{Tracer: fl.clientTracer, WireEncode: sc.WireEncode})
	if fl.tcli == nil {
		fl.tcli = tcp.NewEndpoint(tb.net, fl.cli, cliCfg)
	} else {
		fl.tcli.Reset(cliCfg)
	}
	return web.StartTCPServerOn(fl.tsrv, objectSize), fl.tcli
}

// result starts the Result of a run on tb: flow 0's recorders, the
// collector, the simulator, and the testbed for release.
func (tb *testbed) result() Result {
	lead := &tb.flows[0]
	return Result{ServerTrace: lead.tracer, ClientTrace: lead.clientTracer, Metrics: lead.tracer.Metrics, sim: tb.sim, tb: tb}
}

// finish closes a run that has left RunUntil: the rate varier stops, the
// Result takes the end time and every flow's server budgets (with
// Scenario.Profile) in flow order — before release() recycles the
// recorders and with them their profilers.
func (tb *testbed) finish(res *Result) {
	if tb.varier != nil {
		tb.varier.Stop()
	}
	res.EndTime = tb.sim.Now()
	for _, fl := range tb.flows {
		b := fl.tracer.Budgets(res.EndTime)
		if res.Budgets == nil {
			res.Budgets = b
		} else {
			res.Budgets = append(res.Budgets, b...)
		}
	}
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

// The event budget of a run (eventBudget): budgetPerPacket events for
// every packet the scenario's fastest bottleneck carries over the run's
// horizon, plus budgetBase, which covers runs on near-zero-rate links and
// an unlimited-rate (RateMbps 0) transfer of about 340 MB.
// No run of the full sweep or the chaos corpus fires more than 5.5 events
// per such packet (DESIGN.md §11), so only a wedged simulation — one that
// fires events without end — comes near the budget.
const (
	budgetPerPacket = 64
	budgetBase      = 1 << 20
)

// eventBudget is how many events a run of the scenario may fire before
// horizon, at the highest bottleneck rate the scenario can set: the
// cellular throughput, else RateMbps, or the top of a VarBW range above
// it. It is a function of the scenario and the horizon alone, so a wedged
// run is stopped at the same event on every host, worker count and resume.
func (sc Scenario) eventBudget(horizon time.Duration) uint64 {
	rate := sc.RateMbps
	if sc.Cell != nil {
		rate = sc.Cell.ThroughputMbps
	}
	if sc.VarBW != nil {
		rate = max(rate, sc.VarBW.MaxMbps)
	}
	packets := horizon.Seconds() * rate * 1e6 / (8 * 1500)
	return uint64(budgetPerPacket*packets) + budgetBase
}

// run fires the testbed's events up to horizon under the scenario's event
// budget. A run that spends its budget is wedged — a bug, not a measured
// outcome — so it panics; on the matrix engine the cell is then filed as
// cell_panic with this message.
func (tb *testbed) run(sc Scenario, horizon time.Duration) {
	budget := sc.eventBudget(horizon)
	if tb.sim.RunUntilN(horizon, budget) {
		panic(fmt.Sprintf("event budget spent: %d events fired (budget %d) by virtual time %v of a %v horizon; the simulation is wedged",
			tb.sim.Fired(), budget, tb.sim.Now(), horizon))
	}
}

// RunPLT measures one page load with the given protocol. The QUIC client
// performs an unmeasured warmup fetch first so the measured load uses
// 0-RTT, matching the paper's methodology of never clearing 0-RTT state
// (unless Disable0RTT is set). A wedged run panics when it spends its
// event budget instead of hanging.
func (sc Scenario) RunPLT(proto Proto, seed int64) Result {
	return sc.runPLT(proto, seed, nil)
}

// runPLT is RunPLT with an optional worker testbed pool: with tp non-nil
// the run executes on a Reset-recycled testbed of the scenario's shape
// when one is parked, and the Result carries the testbed for release()
// once the caller has consumed it.
func (sc Scenario) runPLT(proto Proto, seed int64, tp *tbPool) Result {
	tb := sc.acquire(proto, 1, seed, tp)
	res := tb.result()

	// onError classifies the first abnormal teardown of a page-load
	// connection and ends the run: the load can never complete after one.
	onError := func(reason string) {
		if res.Completed || res.FailureReason != FailNone {
			return
		}
		res.FailureReason = classifyFailure(reason)
		tb.sim.Stop()
	}
	onDone := func(plt time.Duration) {
		res.PLT = plt
		res.Completed = true
		tb.sim.Stop()
	}

	target := serverAddr
	if sc.Proxy != NoProxy {
		target = proxyAddr
	}

	switch proto {
	case QUIC:
		srv, cli := sc.serveQUIC(tb, 0, sc.Page.ObjectSize, sc.CCAlgo)
		srv.ServiceWait = sc.ServiceWait
		if sc.Proxy == QUICProxy {
			proxy.StartQUICProxy(tb.net, proxyAddr, sc.quicConfig(nil), serverAddr)
		} else if sc.Proxy == TCPProxy {
			// QUIC cannot be proxied by a TCP proxy: connect direct.
			target = serverAddr
			tb.bypassProxy()
		}
		f := web.NewQUICFetcherOn(cli, target)
		f.OnError = onError
		measure := func() {
			srv.ObjectSize = sc.Page.ObjectSize
			f.LoadPage(sc.Page, onDone)
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
		srv, cli := sc.serveTCP(tb, 0, sc.Page.ObjectSize, sc.CCAlgo)
		srv.ServiceWait = sc.ServiceWait
		if sc.Proxy == TCPProxy {
			proxy.StartTCPProxy(tb.net, proxyAddr, tcp.Config{}, serverAddr)
		} else if sc.Proxy == QUICProxy {
			// TCP through a QUIC proxy is not possible: direct.
			target = serverAddr
			tb.bypassProxy()
		}
		f := web.NewTCPFetcherOn(cli, target)
		f.OnError = onError
		if sc.TCPConns > 0 {
			f.MaxConns = sc.TCPConns
		}
		f.LoadPage(sc.Page, onDone)
	}

	tb.run(sc, sc.deadline())
	tb.finish(&res)
	if !res.Completed {
		// PLT is clamped to the deadline for incomplete runs, so means
		// stay finite and comparable.
		res.PLT = sc.deadline()
		if res.FailureReason == FailNone {
			res.FailureReason = FailDeadline
		}
	}
	return res
}

// Comparison is a paired QUIC-vs-TCP measurement over multiple rounds.
type Comparison struct {
	QUICMean, TCPMean time.Duration
	PctDiff           float64 // positive = QUIC faster
	// P is Welch's two-sided p-value; it stays 0, and Significant
	// false, when the test cannot run (fewer than two rounds, zero
	// variance).
	P           float64
	Significant bool
	Rounds      int
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
