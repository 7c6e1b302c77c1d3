package core

import (
	"encoding/json"
	"testing"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/cellular"
	"quiclab/internal/device"
	"quiclab/internal/trace"
	"quiclab/internal/video"
	"quiclab/internal/web"
)

// The testbed-reuse invariant: a run on a Reset-recycled testbed is
// byte-identical to a run on a freshly built one — same PLT, same event
// log, same metric series, bit for bit. The reuse machinery may only
// change where the objects come from, never what they compute.

// reuseFingerprint serialises everything a cell hands on: its value, and
// what its Result exposes to experiment code and observability sinks —
// the measurement, the full server and client event logs, the exported
// metric series and the stall budgets.
func reuseFingerprint(t *testing.T, value any, res Result) string {
	t.Helper()
	var metricsExport any
	if res.Metrics != nil {
		metricsExport = res.Metrics.Export()
	}
	fp := struct {
		Value     any
		PLT       time.Duration
		Completed bool
		Failure   FailureReason
		End       time.Duration
		Server    *trace.Recorder
		Client    *trace.Recorder
		Summary   trace.Summary
		Metrics   any
		Budgets   any
	}{value, res.PLT, res.Completed, res.FailureReason, res.EndTime,
		res.ServerTrace, res.ClientTrace, res.ServerSummary(), metricsExport, res.Budgets}
	b, err := json.Marshal(fp)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return string(b)
}

// cellRun is one cell body on an optional testbed pool.
type cellRun func(seed int64, tp *tbPool) (any, Result)

func pltRun(sc Scenario, proto Proto) cellRun {
	return func(seed int64, tp *tbPool) (any, Result) { return nil, sc.runPLT(proto, seed, tp) }
}

// assertReuseIdentical runs a cell fresh, then on a testbed recycled from
// warm (run at a different seed so stale state has a chance to leak), and
// asserts identical fingerprints. It fails loudly if pooling silently
// didn't happen — a vacuous pass would hide regressions in shape matching.
// The pooled value must not alias the testbed either: recycling it for
// one more run leaves the value as it was.
func assertReuseIdentical(t *testing.T, warm, run cellRun) {
	t.Helper()
	const warmSeed, seed = 11, 12
	v, fresh := run(seed, nil)
	want := reuseFingerprint(t, v, fresh)

	tp := newTBPool()
	_, w := warm(warmSeed, tp)
	warmTB := w.tb
	w.release()
	v, got := run(seed, tp)
	if got.tb != warmTB {
		t.Fatal("second pooled run did not reuse the warmed testbed (shape mismatch?)")
	}
	if fp := reuseFingerprint(t, v, got); fp != want {
		t.Errorf("reused testbed diverged from fresh build\nfresh:  %.300s\nreused: %.300s", want, fp)
	}
	before, _ := json.Marshal(v)
	got.release()
	run(warmSeed, tp)
	if after, _ := json.Marshal(v); string(after) != string(before) {
		t.Errorf("the cell's value changed when its testbed ran again: it aliases the testbed")
	}
}

// TestResetTestbedByteIdentical holds the reuse invariant across every
// registered congestion-control algorithm on both transports, with full
// instrumentation on (event tracing + metric series) so any stale state
// in a recycled recorder, collector, endpoint, or link shows up.
func TestResetTestbedByteIdentical(t *testing.T) {
	base := Scenario{
		Seed:     1,
		RateMbps: 20,
		RTT:      40 * time.Millisecond,
		LossPct:  1,
		Page:     web.Page{NumObjects: 4, ObjectSize: 64 << 10},
		Device:   device.Desktop,
	}
	base = base.instrumented()
	for _, proto := range []Proto{QUIC, TCP} {
		for _, algo := range cc.Algorithms() {
			t.Run(proto.String()+"/"+algo, func(t *testing.T) {
				t.Parallel()
				sc := base
				sc.CCAlgo = algo
				assertReuseIdentical(t, pltRun(sc, proto), pltRun(sc, proto))
			})
		}
	}
}

// TestResetTestbedByteIdenticalShapes covers the wiring paths the CC
// sweep above does not reach: the proxied four-link topology, the
// cellular profile links, variable bandwidth (the varier must be rebuilt
// per run), N flows sharing one bottleneck (a QUIC+TCP+TCP fairness cell,
// a two-controller tournament cell), and the bulk and video cells, which
// run on a testbed a page load left behind.
func TestResetTestbedByteIdenticalShapes(t *testing.T) {
	sc := Scenario{
		Seed:     1,
		RateMbps: 20,
		RTT:      40 * time.Millisecond,
		Page:     web.Page{NumObjects: 2, ObjectSize: 32 << 10},
		Device:   device.Desktop,
	}
	sc = sc.instrumented()
	shapes := []struct {
		name  string
		proto Proto
		mod   func(*Scenario)
	}{
		{"quic-proxy", QUIC, func(sc *Scenario) { sc.Proxy = QUICProxy }},
		{"tcp-proxy", QUIC, func(sc *Scenario) { sc.Proxy = TCPProxy }},
		{"cellular", QUIC, func(sc *Scenario) { p := cellular.VerizonLTE; sc.Cell = &p }},
		{"varbw", QUIC, func(sc *Scenario) {
			sc.VarBW = &VarBW{MinMbps: 5, MaxMbps: 20, Interval: 200 * time.Millisecond}
		}},
	}
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc := sc
			tc.mod(&sc)
			assertReuseIdentical(t, pltRun(sc, tc.proto), pltRun(sc, tc.proto))
		})
	}
	fair := table4Path.instrumented()
	fairness := func(arms ...FairArm) cellRun {
		return func(seed int64, tp *tbPool) (any, Result) {
			return fair.runFairness(arms, 4*time.Second, seed, tp)
		}
	}
	bulk := sc
	bulk.Page, bulk.LossPct = web.Page{NumObjects: 1, ObjectSize: 4 << 20}, 1
	throughput := func(seed int64, tp *tbPool) (any, Result) { return bulk.runThroughput(QUIC, seed, tp) }
	vid := func(seed int64, tp *tbPool) (any, Result) { return sc.runVideo(video.Tiny, TCP, seed, tp) }
	runs := []struct {
		name      string
		warm, run cellRun
	}{
		{"fairness-quic-tcp-tcp", fairness(ProtoArms(QUIC, TCP, TCP)...), fairness(ProtoArms(QUIC, TCP, TCP)...)},
		{"tournament-cubic-bbr", fairness(FairArm{QUIC, "cubic", "cubic/a"}, FairArm{QUIC, "bbr", "bbr/b"}),
			fairness(FairArm{QUIC, "cubic", "cubic/a"}, FairArm{QUIC, "bbr", "bbr/b"})},
		{"throughput", pltRun(bulk, QUIC), throughput},
		{"video", pltRun(sc, TCP), vid},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			assertReuseIdentical(t, tc.warm, tc.run)
		})
	}
}

// TestTBPoolShapeSeparation pins the shape key: cells that register
// different metric series (different CC algorithms, different protocols)
// must never share a testbed, or a recycled collector would export stale
// series.
func TestTBPoolShapeSeparation(t *testing.T) {
	sc := Scenario{Page: web.Page{NumObjects: 1, ObjectSize: 1 << 10}}
	sc = sc.instrumented()
	cubic, bbr := sc, sc
	cubic.CCAlgo = "cubic"
	bbr.CCAlgo = "bbr"
	if cubic.shape(QUIC, 1) == bbr.shape(QUIC, 1) {
		t.Error("cubic and bbr scenarios share a testbed shape")
	}
	if cubic.shape(QUIC, 1) == cubic.shape(TCP, 1) {
		t.Error("QUIC and TCP runs share a testbed shape")
	}
	// N flows are N address pairs: a fairness cell never lands on a
	// testbed with another flow count. Flow 0's controller registers the
	// collector's series, so a tournament's arm order is structure too.
	if sc.shape(QUIC, 3) == sc.shape(QUIC, 2) || sc.shape(QUIC, 2) == sc.shape(QUIC, 1) {
		t.Error("testbeds with different flow counts share a shape")
	}
	if cubic.shape(QUIC, 2) == bbr.shape(QUIC, 2) {
		t.Error("tournament cells led by cubic and by bbr share a testbed shape")
	}
}
