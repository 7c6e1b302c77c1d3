package core

import (
	"fmt"
	"time"

	"quiclab/internal/sim"
	"quiclab/internal/stats"
	"quiclab/internal/trace"
	"quiclab/internal/web"
)

// FairFlow is one competing flow's outcome in a fairness experiment
// (§5.1, Fig 4/5, Table 4).
type FairFlow struct {
	Name       string
	Proto      Proto
	CC         string         // registry algorithm ("" = calibrated default)
	Throughput float64        // average Mbps over the measurement window
	Series     []float64      // per-second Mbps (Fig 4 timelines)
	Cwnd       []trace.Sample // one sample per simulated second (Fig 5)
}

// FairArm describes one competing flow of an N-way fairness run: which
// transport it rides and, optionally, which registry congestion
// controller it uses instead of the transport's calibrated default.
type FairArm struct {
	Proto Proto
	CC    string // registry algorithm name ("" = calibrated default)
	Label string // display name ("" = auto: "QUIC 1", "TCP 2", ...)
}

// ProtoArms lists one arm per protocol, each with its transport's
// calibrated congestion control: Table 4's "QUIC vs TCPx2" is
// ProtoArms(QUIC, TCP, TCP).
func ProtoArms(ps ...Proto) []FairArm {
	arms := make([]FairArm, len(ps))
	for i, p := range ps {
		arms[i] = FairArm{Proto: p}
	}
	return arms
}

// table4Path is the paper's shared bottleneck (§5.1, Fig 4/5, Table 4):
// 5 Mbps, the default 36 ms RTT, a 30 KB drop-tail buffer.
var table4Path = Scenario{RateMbps: 5, QueueBytes: 30 << 10}

// ccOf is the controller an arm's sender runs: the arm's named one, else
// the scenario's.
func (sc Scenario) ccOf(arm FairArm) string {
	if arm.CC != "" {
		return arm.CC
	}
	return sc.CCAlgo
}

// RunFairness runs one flow per arm over the scenario's path (its rate,
// RTT and buffer are the shared bottleneck) and reports per-flow
// throughput. All flows download continuously for dur; throughput is
// averaged after a 3 s warmup.
func (sc Scenario) RunFairness(arms []FairArm, dur time.Duration, seed int64) []FairFlow {
	flows, _ := sc.runFairness(arms, dur, seed, nil)
	return flows
}

// runFairness is RunFairness on an optional worker testbed pool. The
// Result describes flow 0 (its server recorder, the collector, the link
// series), and its Budgets list every flow's server connections in flow
// order. It is completed unless a flow's connection tore down abnormally;
// then it carries the first such flow's class.
func (sc Scenario) runFairness(arms []FairArm, dur time.Duration, seed int64, tp *tbPool) ([]FairFlow, Result) {
	// The arms race their senders; every receiver runs the calibrated
	// controller (a receiver's controller paces what little it sends).
	lead, recv := sc, sc
	lead.CCAlgo, recv.CCAlgo = sc.ccOf(arms[0]), ""
	tb := lead.acquire(arms[0].Proto, len(arms), seed, tp)
	res := tb.result()
	// Twice what the link carries in dur: no flow ever finishes.
	objectSize := int(sc.RateMbps*1e6/8) * int(dur/time.Second) * 2
	flows := make([]FairFlow, len(arms))
	b := newBulk(len(arms))
	var nth [2]int // per-protocol flow numbers for the default labels
	for i, arm := range arms {
		nth[arm.Proto]++
		name := arm.Label
		if name == "" {
			name = fmt.Sprintf("%s %d", arm.Proto, nth[arm.Proto])
		}
		flows[i] = FairFlow{Name: name, Proto: arm.Proto, CC: sc.ccOf(arm)}
		// Flows start within a ~1s window of each other (the paper's
		// scripted transfers were not atomically synchronised either);
		// this both de-synchronises slow starts and provides honest
		// run-to-run variance for the Table 4 std columns.
		startAt := time.Duration(tb.sim.Rand().Int63n(int64(time.Second)))
		tb.sim.Schedule(startAt, recv.download(tb, i, arm.Proto, objectSize, flows[i].CC, b, nil))
	}
	b.sample(tb.sim)
	tb.run(sc, dur)
	tb.finish(&res)
	res.Completed = true
	for i := range flows {
		flows[i].Series = b.series[i]
		if len(flows[i].Series) > 3 {
			flows[i].Throughput = stats.Mean(flows[i].Series[3:])
		}
		// A copy: the recorder is Reset when the testbed is recycled.
		flows[i].Cwnd = append([]trace.Sample(nil), tb.flows[i].tracer.Cwnd...)
		if res.Completed && b.failed[i] != FailNone {
			res.Completed, res.FailureReason = false, b.failed[i]
		}
	}
	return flows, res
}

// bulk is the receiving side of a testbed's bulk downloads: the bytes
// each flow's client received, the class of its connection's first
// abnormal teardown, and its per-second goodput in Mbps.
type bulk struct {
	received []int64
	failed   []FailureReason
	series   [][]float64
}

func newBulk(n int) *bulk {
	return &bulk{make([]int64, n), make([]FailureReason, n), make([][]float64, n)}
}

// sample appends every flow's goodput over the past simulated second to
// its series, once a simulated second from now on.
func (b *bulk) sample(s *sim.Simulator) {
	last := make([]int64, len(b.received))
	var tick func()
	tick = func() {
		for i, r := range b.received {
			b.series[i] = append(b.series[i], float64(r-last[i])*8/1e6)
			last[i] = r
		}
		s.Schedule(time.Second, tick)
	}
	s.Schedule(time.Second, tick)
}

// download readies flow i's endpoints for proto, the server on
// controller ccAlgo, and returns what starts its transfer: the client
// dials the flow's server and requests one objectSize-byte object,
// counting what arrives into b and calling done (if non-nil) at the
// object's last byte.
func (sc Scenario) download(tb *testbed, i int, proto Proto, objectSize int, ccAlgo string, b *bulk, done func()) func() {
	srv := tb.flows[i].srv
	rcv, failed := &b.received[i], &b.failed[i]
	onClosed := func(reason string) {
		if *failed == FailNone {
			*failed = classifyFailure(reason)
		}
	}
	if proto == QUIC {
		_, cli := sc.serveQUIC(tb, i, objectSize, ccAlgo)
		return func() {
			conn := cli.Dial(srv)
			conn.OnClosed = onClosed
			conn.OnConnected(func() {
				st, err := conn.OpenStream()
				if err != nil {
					return
				}
				st.OnData = func(delta int, fin bool) {
					*rcv += int64(delta)
					if fin && done != nil {
						done()
					}
				}
				st.Write(web.RequestSize, true)
			})
		}
	}
	_, cli := sc.serveTCP(tb, i, objectSize, ccAlgo)
	need := int64(web.TLSBytes(web.ResponseHeaderSize + objectSize))
	return func() {
		conn := cli.Dial(srv)
		conn.OnClosed = onClosed
		conn.OnData = func(delta int) {
			*rcv += int64(delta)
			if *rcv >= need && done != nil {
				d := done
				done = nil
				d()
			}
		}
		conn.OnConnected(func() { conn.Write(web.TLSBytes(web.RequestSize)) })
	}
}

// ThroughputTrace is one bulk download's time series.
type ThroughputTrace struct {
	// Series is per-second goodput in Mbps.
	Series []float64
	// AvgMbps is the mean over the transfer (excluding the first second).
	AvgMbps float64
	// Done is when the transfer completed (0 if it never did).
	Done time.Duration
	// Cwnd is the sender's congestion window, one sample per simulated
	// second (Fig 9; trace.Recorder.Cwnd).
	Cwnd []trace.Sample
}

// RunThroughput downloads the scenario's page (as a single bulk object:
// Page.ObjectSize with NumObjects=1 is typical) and records per-second
// goodput and the server's cwnd evolution — the machinery behind Fig 9
// (cwnd under loss) and Fig 11 (variable bandwidth).
func (sc Scenario) RunThroughput(proto Proto, seed int64) ThroughputTrace {
	tr, _ := sc.runThroughput(proto, seed, nil)
	return tr
}

// runThroughput is RunThroughput on an optional worker testbed pool: one
// bulk download as a fairness flow runs it, stopping when the object is
// in. The Result is completed when the transfer finished, else it carries
// the connection's teardown class or the deadline.
func (sc Scenario) runThroughput(proto Proto, seed int64, tp *tbPool) (ThroughputTrace, Result) {
	tb := sc.acquire(proto, 1, seed, tp)
	res := tb.result()
	b := newBulk(1)
	var done time.Duration
	sc.download(tb, 0, proto, sc.Page.ObjectSize, sc.CCAlgo, b, func() {
		done = tb.sim.Now()
		tb.sim.Stop()
	})()
	b.sample(tb.sim)
	tb.run(sc, sc.deadline())
	tb.finish(&res)
	out := ThroughputTrace{
		Series: b.series[0],
		Done:   done,
		// A copy: the recorder is Reset when the testbed is recycled.
		Cwnd: append([]trace.Sample(nil), res.ServerTrace.Cwnd...),
	}
	if len(out.Series) > 1 {
		out.AvgMbps = stats.Mean(out.Series[1:])
	}
	res.Completed = done > 0
	if !res.Completed {
		res.FailureReason = b.failed[0]
		if res.FailureReason == FailNone {
			res.FailureReason = FailDeadline
		}
	}
	return out, res
}

// FairnessRow is one flow's mean (std) throughput over a fairness
// scenario's runs — one line of the paper's Table 4.
type FairnessRow struct {
	Scenario string
	Flow     string
	Mean     float64
	Std      float64
}

// fairPayload is a fairness cell's value: per-flow names and average
// throughputs.
type fairPayload struct {
	Names []string  `json:"names"`
	Tput  []float64 `json:"tput"`
}

func fairPayloadOf(flows []FairFlow) fairPayload {
	p := fairPayload{
		Names: make([]string, len(flows)),
		Tput:  make([]float64, len(flows)),
	}
	for i, fl := range flows {
		p.Names[i], p.Tput[i] = fl.Name, fl.Throughput
	}
	return p
}

// FairnessScenario is one row-group of a fairness table: a label, the
// shared path (table4Path for the paper's Table 4 conditions) and the N
// arms competing on it.
type FairnessScenario struct {
	Name string
	Scenario
	Arms []FairArm
}

// addFairness enqueues one fairness run of arms over sc's path, prepped,
// as a cell whose value is value(flows) and whose Result goes to the
// engine.
func addFairness[T any](m *Matrix, c Cell, slot *T, accept func(T) error,
	sc Scenario, arms []FairArm, dur time.Duration, value func([]FairFlow) T) {
	sc = m.prep(sc)
	addCell(m, c, slot, accept, func(seed int64, tp *tbPool) (T, *Result) {
		flows, res := sc.runFairness(arms, dur, seed, tp)
		return value(flows), &res
	})
}

// allFlows is the value of a cell that keeps every flow's outcome.
func allFlows(flows []FairFlow) []FairFlow { return flows }

// RunFairnessScenarios runs an N-arm fairness table on the matrix
// engine: each (scenario, run) pair is one cell, so the sweep
// parallelises across o.Parallelism workers while the returned rows
// stay identical at any worker count.
func RunFairnessScenarios(o Options, matrixName string, runs int, dur time.Duration, scenarios []FairnessScenario) []FairnessRow {
	o = o.withDefaults()
	m := NewMatrix(matrixName, o)
	var rows []FairnessRow
	for _, sce := range scenarios {
		// A restored payload for another arm count is rejected (the cell
		// re-runs); the zero payload of a cell that panicked fails the
		// same check and counts as zero throughput.
		fits := func(p fairPayload) error {
			if len(p.Tput) != len(sce.Arms) || len(p.Names) != len(sce.Arms) {
				return fmt.Errorf("fairness payload has %d flows, want %d", len(p.Tput), len(sce.Arms))
			}
			return nil
		}
		outs := make([]fairPayload, runs)
		sci := m.NextScenario()
		for r := range outs {
			addFairness(m, Cell{Scenario: sci, Round: r}, &outs[r], fits, sce.Scenario, sce.Arms, dur, fairPayloadOf)
		}
		m.Defer(func() {
			for i := range sce.Arms {
				row := FairnessRow{Scenario: sce.Name}
				samples := make([]float64, runs)
				for r, p := range outs {
					if fits(p) != nil {
						continue
					}
					samples[r] = p.Tput[i]
					if r == 0 {
						row.Flow = p.Names[i]
					}
				}
				row.Mean, row.Std = stats.Mean(samples), stats.StdDev(samples)
				rows = append(rows, row)
			}
		})
	}
	m.Run()
	return rows
}
