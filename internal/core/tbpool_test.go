package core

import (
	"encoding/json"
	"testing"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/cellular"
	"quiclab/internal/device"
	"quiclab/internal/trace"
	"quiclab/internal/web"
)

// The testbed-reuse invariant: a run on a Reset-recycled testbed is
// byte-identical to a run on a freshly built one — same PLT, same event
// log, same metric series, bit for bit. The reuse machinery may only
// change where the objects come from, never what they compute.

// reuseFingerprint serialises everything a Result exposes to experiment
// code and observability sinks: the measurement, the full server and
// client event logs, and the exported metric series.
func reuseFingerprint(t *testing.T, res Result) string {
	t.Helper()
	var metricsExport any
	if res.Metrics != nil {
		metricsExport = res.Metrics.Export()
	}
	fp := struct {
		PLT       time.Duration
		Completed bool
		Failure   FailureReason
		End       time.Duration
		Server    *trace.Recorder
		Client    *trace.Recorder
		Summary   trace.Summary
		Metrics   any
	}{res.PLT, res.Completed, res.FailureReason, res.EndTime,
		res.ServerTrace, res.ClientTrace, res.ServerSummary(), metricsExport}
	b, err := json.Marshal(fp)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return string(b)
}

// assertReuseIdentical runs sc fresh, then on a recycled testbed (warmed
// by a different seed so stale state has a chance to leak), and asserts
// identical fingerprints. It fails loudly if pooling silently didn't
// happen — a vacuous pass would hide regressions in shape matching.
func assertReuseIdentical(t *testing.T, sc Scenario, proto Proto) {
	t.Helper()
	const warmSeed, seed = 11, 12
	fresh := sc.RunPLT(proto, seed)
	want := reuseFingerprint(t, fresh)

	tp := newTBPool()
	warm := sc.runPLT(proto, warmSeed, tp)
	warmTB := warm.tb
	warm.release()
	got := sc.runPLT(proto, seed, tp)
	if got.tb != warmTB {
		t.Fatal("second pooled run did not reuse the warmed testbed (shape mismatch?)")
	}
	if fp := reuseFingerprint(t, got); fp != want {
		t.Errorf("reused testbed diverged from fresh build\nfresh:  %.300s\nreused: %.300s", want, fp)
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
				assertReuseIdentical(t, sc, proto)
			})
		}
	}
}

// TestResetTestbedByteIdenticalShapes covers the wiring paths the CC
// sweep above does not reach: the proxied four-link topology, the
// cellular profile links, variable bandwidth (the varier must be rebuilt
// per run).
func TestResetTestbedByteIdenticalShapes(t *testing.T) {
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
			sc := Scenario{
				Seed:     1,
				RateMbps: 20,
				RTT:      40 * time.Millisecond,
				Page:     web.Page{NumObjects: 2, ObjectSize: 32 << 10},
				Device:   device.Desktop,
			}
			sc = sc.instrumented()
			tc.mod(&sc)
			assertReuseIdentical(t, sc, tc.proto)
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
	if cubic.shape(QUIC) == bbr.shape(QUIC) {
		t.Error("cubic and bbr scenarios share a testbed shape")
	}
	if cubic.shape(QUIC) == cubic.shape(TCP) {
		t.Error("QUIC and TCP runs share a testbed shape")
	}
}
