package core

import (
	"strings"
	"testing"
	"time"

	"quiclab/internal/device"
	"quiclab/internal/web"
)

// These tests assert the paper's headline findings reproduce
// directionally. They use few rounds to stay fast; the full-scale
// numbers live in EXPERIMENTS.md.

const testRounds = 3

func TestQUICWinsSmallObjectsVia0RTT(t *testing.T) {
	sc := Scenario{
		Seed: 1, RateMbps: 100,
		Page:   web.Page{NumObjects: 1, ObjectSize: 10 << 10},
		Device: device.Desktop,
	}
	cm := sc.CompareWith(Options{Rounds: testRounds, Seed: sc.Seed})
	if !cm.Significant || cm.PctDiff < 30 {
		t.Fatalf("QUIC should win big for small objects: %+v", cm)
	}
}

func TestQUICWinsLargeObjectsHighBandwidth(t *testing.T) {
	sc := Scenario{
		Seed: 2, RateMbps: 100,
		Page:   web.Page{NumObjects: 1, ObjectSize: 10 << 20},
		Device: device.Desktop,
	}
	cm := sc.CompareWith(Options{Rounds: testRounds, Seed: sc.Seed})
	if !cm.Significant || cm.PctDiff <= 0 {
		t.Fatalf("calibrated QUIC should win for 10MB at 100Mbps: %+v", cm)
	}
}

func TestLowRateLargeObjectInconclusive(t *testing.T) {
	// At 10Mbps both protocols saturate the link for a 10MB transfer;
	// differences are hair-thin and should not be called significant.
	sc := Scenario{
		Seed: 3, RateMbps: 10,
		Page:   web.Page{NumObjects: 1, ObjectSize: 10 << 20},
		Device: device.Desktop,
	}
	cm := sc.CompareWith(Options{Rounds: testRounds, Seed: sc.Seed})
	if cm.PctDiff > 10 || cm.PctDiff < -10 {
		t.Fatalf("rate-bound transfer should be near-equal: %+v", cm)
	}
}

func TestQUICWinsUnderLoss(t *testing.T) {
	sc := Scenario{
		Seed: 4, RateMbps: 100, LossPct: 1,
		Page:   web.Page{NumObjects: 1, ObjectSize: 10 << 20},
		Device: device.Desktop,
	}
	// Five rounds: random loss makes PLTs vary ~±10 % between rounds, and
	// Welch at three samples cannot call even a +48 % gap at p < 0.01
	// for every seed (engine seeds 1 and 4 give p = 0.011 and 0.021; at
	// five rounds seeds 1-4 all give p <= 3.3e-4).
	cm := sc.CompareWith(Options{Rounds: 5, Seed: sc.Seed})
	if !cm.Significant || cm.PctDiff < 20 {
		t.Fatalf("QUIC should win clearly under 1%% loss: %+v", cm)
	}
}

// TestQUICLossWinIsNConnectionEmulation: the same cell and rounds with
// the calibrated Cubic emulating one connection instead of two — the
// only change — and QUIC's loss win is gone. N=2 emulation backs off less
// on each loss and regrows faster, so the win is a calibration, not
// faster loss recovery (Fig 8). At engine seeds 1-4 the calibrated gap is
// +50 to +52 % and the N=1 one -5.5 to +0.1 %, none significant.
func TestQUICLossWinIsNConnectionEmulation(t *testing.T) {
	sc := Scenario{
		Seed: 4, RateMbps: 100, LossPct: 1,
		Page:        web.Page{NumObjects: 1, ObjectSize: 10 << 20},
		Device:      device.Desktop,
		Connections: 1,
	}
	cm := sc.CompareWith(Options{Rounds: 5, Seed: sc.Seed})
	if cm.Significant && cm.PctDiff >= 5 {
		t.Fatalf("QUIC emulating one connection should not win under 1%% loss: %+v", cm)
	}
}

func TestQUICLosesUnderDeepReordering(t *testing.T) {
	sc := Scenario{
		Seed: 5, RateMbps: 20,
		RTT: 112 * time.Millisecond, Jitter: 10 * time.Millisecond,
		Page:   web.Page{NumObjects: 1, ObjectSize: 5 << 20},
		Device: device.Desktop,
	}
	cm := sc.CompareWith(Options{Rounds: testRounds, Seed: sc.Seed})
	if cm.PctDiff >= 0 {
		t.Fatalf("NACK=3 QUIC must lose under deep reordering: %+v", cm)
	}
	// Raising the NACK threshold flips the result (Fig 10).
	sc.NACKThreshold = 25
	cm2 := sc.CompareWith(Options{Rounds: testRounds, Seed: sc.Seed})
	if cm2.QUICMean >= cm.QUICMean {
		t.Fatalf("higher NACK threshold should speed QUIC up: %v -> %v", cm.QUICMean, cm2.QUICMean)
	}
}

func TestQUICLosesManySmallObjectsHighRate(t *testing.T) {
	sc := Scenario{
		Seed: 6, RateMbps: 100,
		Page:   web.Page{NumObjects: 200, ObjectSize: 10 << 10},
		Device: device.Desktop,
	}
	cm := sc.CompareWith(Options{Rounds: testRounds, Seed: sc.Seed})
	if cm.PctDiff >= 0 {
		t.Fatalf("QUIC should lose for 200 small objects at 100Mbps: %+v", cm)
	}
}

func TestMACW107HurtsHighBandwidth(t *testing.T) {
	big := Scenario{
		Seed: 7, RateMbps: 100, ExtraDelay: 50 * time.Millisecond,
		Page:   web.Page{NumObjects: 1, ObjectSize: 20 << 20},
		Device: device.Desktop,
	}
	small := big
	small.MACW = 107
	a := big.RunPLT(QUIC, 7)
	b := small.RunPLT(QUIC, 7)
	if b.PLT <= a.PLT {
		t.Fatalf("MACW=107 (%v) should be slower than 430 (%v) at high BDP", b.PLT, a.PLT)
	}
}

func TestSSThreshBugHurts(t *testing.T) {
	good := Scenario{
		Seed: 8, RateMbps: 100,
		Page:   web.Page{NumObjects: 1, ObjectSize: 10 << 20},
		Device: device.Desktop,
	}
	bad := good
	bad.SSThreshBug = true
	a := good.RunPLT(QUIC, 8)
	b := bad.RunPLT(QUIC, 8)
	if b.PLT <= a.PLT {
		t.Fatalf("ssthresh bug (%v) should be slower than fixed (%v)", b.PLT, a.PLT)
	}
}

func TestMobileDiminishesQUICGains(t *testing.T) {
	mk := func(dev device.Profile) Comparison {
		sc := Scenario{
			Seed: 9, RateMbps: 50,
			Page:   web.Page{NumObjects: 1, ObjectSize: 10 << 20},
			Device: dev,
		}
		return sc.CompareWith(Options{Rounds: testRounds, Seed: sc.Seed})
	}
	desktop := mk(device.Desktop)
	motog := mk(device.MotoG)
	if motog.PctDiff >= desktop.PctDiff {
		t.Fatalf("MotoG (%+.1f%%) should diminish QUIC's desktop gain (%+.1f%%)", motog.PctDiff, desktop.PctDiff)
	}
	if motog.PctDiff >= 0 {
		t.Fatalf("MotoG at 50Mbps should flip negative, got %+.1f%%", motog.PctDiff)
	}
}

func TestMotoGServerAppLimited(t *testing.T) {
	sc := Scenario{
		Seed: 10, RateMbps: 50,
		Page:   web.Page{NumObjects: 1, ObjectSize: 20 << 20},
		Device: device.MotoG,
	}
	res := sc.RunPLT(QUIC, 10)
	if !res.Completed {
		t.Fatal("did not complete")
	}
	tis := res.ServerSummary().TimeInState
	var total time.Duration
	for _, d := range tis {
		total += d
	}
	frac := float64(tis["ApplicationLimited"]) / float64(total)
	if frac < 0.3 {
		t.Fatalf("MotoG server app-limited fraction %.2f too low (states %v)", frac, tis)
	}
	// Desktop control.
	sc.Device = device.Desktop
	res2 := sc.RunPLT(QUIC, 10)
	tis2 := res2.ServerSummary().TimeInState
	var total2 time.Duration
	for _, d := range tis2 {
		total2 += d
	}
	frac2 := float64(tis2["ApplicationLimited"]) / float64(total2)
	if frac2 >= frac/2 {
		t.Fatalf("desktop app-limited %.2f should be far below MotoG %.2f", frac2, frac)
	}
}

func TestFairnessQUICOverFairShare(t *testing.T) {
	res := table4Path.RunFairness(ProtoArms(QUIC, TCP), 20*time.Second, 11)
	if res[0].Throughput < 2*res[1].Throughput {
		t.Fatalf("QUIC (%.2f) should take at least 2x TCP's share (%.2f)", res[0].Throughput, res[1].Throughput)
	}
	// vs 2 TCP flows: QUIC still above 50%.
	res2 := table4Path.RunFairness(ProtoArms(QUIC, TCP, TCP), 20*time.Second, 11)
	if res2[0].Throughput < 2.5 {
		t.Fatalf("QUIC (%.2f) should keep >50%% of 5Mbps vs TCPx2", res2[0].Throughput)
	}
}

func TestSameProtocolFlowsAreFair(t *testing.T) {
	for _, flows := range [][]Proto{{QUIC, QUIC}, {TCP, TCP}} {
		res := table4Path.RunFairness(ProtoArms(flows...), 30*time.Second, 12)
		a, b := res[0].Throughput, res[1].Throughput
		if a+b < 3.5 {
			t.Fatalf("%v: combined %.2f too low", flows, a+b)
		}
		ratio := a / b
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > 2.5 {
			t.Fatalf("%v flows unfair to each other: %.2f vs %.2f", flows, a, b)
		}
	}
}

func TestVariableBandwidthQUICWins(t *testing.T) {
	sc := Scenario{
		Seed:       13,
		VarBW:      &VarBW{MinMbps: 50, MaxMbps: 150, Interval: time.Second},
		QueueBytes: 64 << 10, // shallow buffer: down-shifts overflow it
		Page:       web.Page{NumObjects: 1, ObjectSize: 60 << 20},
		Device:     device.Desktop,
	}
	q := sc.RunThroughput(QUIC, 13)
	tc := sc.RunThroughput(TCP, 13)
	if q.AvgMbps <= tc.AvgMbps {
		t.Fatalf("QUIC (%.0f Mbps) should beat TCP (%.0f) under fluctuating bandwidth", q.AvgMbps, tc.AvgMbps)
	}
}

func TestProxyHelpsTCPUnderLoss(t *testing.T) {
	direct := Scenario{
		Seed: 14, RateMbps: 50, LossPct: 1,
		Page:   web.Page{NumObjects: 1, ObjectSize: 5 << 20},
		Device: device.Desktop,
	}
	proxied := direct
	proxied.Proxy = TCPProxy
	d := direct.RunPLT(TCP, 14)
	p := proxied.RunPLT(TCP, 14)
	if p.PLT >= d.PLT {
		t.Fatalf("proxied TCP (%v) should beat direct TCP (%v) under loss", p.PLT, d.PLT)
	}
}

func TestQUICProxyHurtsSmallObjects(t *testing.T) {
	sc := Scenario{
		Seed: 15, RateMbps: 50,
		Page:   web.Page{NumObjects: 1, ObjectSize: 10 << 10},
		Device: device.Desktop,
	}
	m := NewMatrix("proxycompare", Options{Rounds: testRounds, Seed: sc.Seed})
	cm := m.ProxyCompare(sc)
	m.Run()
	// Positive = direct faster; the proxy adds a full handshake (no
	// 0-RTT) so direct should win for small objects.
	if cm.PctDiff <= 0 {
		t.Fatalf("direct QUIC should beat proxied QUIC for small objects: %+v", cm)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.body == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig2", "fig3a", "fig3b", "fig4", "table4", "fig5",
		"fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "table5", "fig14", "table6", "fig15", "fig17", "fig18"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, ok := ByID("fig6a"); !ok {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID should fail for unknown id")
	}
}

func TestExperimentOutputsNonEmpty(t *testing.T) {
	// Cheap experiments produce output without errors.
	for _, id := range []string{"fig5", "fig13", "table5"} {
		e, _ := ByID(id)
		var sb strings.Builder
		e.Run(&sb, Options{Quick: true, Rounds: 2, Seed: 3})
		if len(sb.String()) < 40 {
			t.Errorf("%s produced little output: %q", id, sb.String())
		}
	}
}

func TestPerturbedIsPaired(t *testing.T) {
	sc := Scenario{Seed: 99, RTT: 50 * time.Millisecond}
	a := sc.perturbed(4)
	b := sc.perturbed(4)
	if a.RTT != b.RTT {
		t.Fatal("same round must perturb identically (paired runs)")
	}
	c := sc.perturbed(5)
	if a.RTT == c.RTT {
		t.Fatal("different rounds should differ")
	}
	if a.RTT < 45*time.Millisecond || a.RTT > 55*time.Millisecond {
		t.Fatalf("perturbation too large: %v", a.RTT)
	}
}

func TestDeadlineScales(t *testing.T) {
	small := Scenario{RateMbps: 100, Page: web.Page{NumObjects: 1, ObjectSize: 10 << 10}}
	big := Scenario{RateMbps: 5, Page: web.Page{NumObjects: 1, ObjectSize: 210 << 20}}
	if small.deadline() >= big.deadline() {
		t.Fatal("deadline should scale with transfer time")
	}
	if big.deadline() > 30*time.Minute {
		t.Fatal("deadline cap")
	}
}
