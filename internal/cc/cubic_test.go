package cc

import (
	"testing"
	"time"

	"quiclab/internal/statemachine"
	"quiclab/internal/trace"
)

const testMSS = 1000

func newTestCubic(cfg CubicConfig) *Cubic {
	if cfg.MSS == 0 {
		cfg.MSS = testMSS
	}
	if cfg.InitialCwndPackets == 0 {
		cfg.InitialCwndPackets = 10
	}
	return NewCubic(cfg)
}

// ackRTT models one round: n packets sent back-to-back at now, all acked
// one RTT later. Returns the next send index and time.
func ackRTT(c *Cubic, idx uint64, now time.Duration, n int, rtt time.Duration) (uint64, time.Duration) {
	base := idx
	for i := 0; i < n; i++ {
		c.OnPacketSent(now, idx, testMSS)
		idx++
	}
	now += rtt
	for i := 0; i < n; i++ {
		c.OnAck(now, base+uint64(i), testMSS, rtt, (n-1-i)*testMSS)
	}
	return idx, now
}

func TestInitialWindow(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 32})
	if c.Window() != 32*testMSS {
		t.Fatalf("initial cwnd %d, want %d", c.Window(), 32*testMSS)
	}
	if c.State() != StateInit {
		t.Fatalf("state %v, want Init", c.State())
	}
}

func TestSlowStartGrowth(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 10})
	c.OnPacketSent(0, 1, testMSS)
	if c.State() != StateSlowStart {
		t.Fatalf("state %v, want SlowStart", c.State())
	}
	before := c.Window()
	c.OnAck(10*time.Millisecond, 1, testMSS, 10*time.Millisecond, 0)
	if c.Window() != before+testMSS {
		t.Fatalf("cwnd %d, want %d (+1 MSS per acked MSS)", c.Window(), before+testMSS)
	}
}

func TestSlowStartExitAtSSThresh(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 10, InitialSSThreshPackets: 20})
	idx, now := uint64(1), time.Duration(0)
	idx, now = ackRTT(c, idx, now, 15, 10*time.Millisecond)
	if c.State() != StateCongestionAvoidance {
		t.Fatalf("state %v, want CongestionAvoidance after crossing ssthresh", c.State())
	}
	// CA growth should be far slower than slow start.
	w := c.Window()
	_, _ = ackRTT(c, idx, now, 10, 10*time.Millisecond)
	growth := c.Window() - w
	if growth >= 10*testMSS {
		t.Fatalf("CA grew %d bytes over 10 acks; too fast", growth)
	}
}

func TestLossReducesWindowByBeta(t *testing.T) {
	for _, n := range []int{1, 2} {
		c := newTestCubic(CubicConfig{InitialCwndPackets: 100, Connections: n})
		c.OnPacketSent(0, 1, testMSS)
		c.OnAck(time.Millisecond, 1, testMSS, time.Millisecond, 0)
		w := c.Window()
		c.OnPacketSent(2*time.Millisecond, 2, testMSS)
		c.OnLoss(3*time.Millisecond, 2, testMSS, 50*testMSS)
		beta := (float64(n) - 1 + 0.7) / float64(n)
		want := int(float64(w) * beta)
		got := c.Window()
		if got < want-testMSS || got > want+testMSS {
			t.Errorf("N=%d: post-loss cwnd %d, want ~%d (beta=%.2f)", n, got, want, beta)
		}
		if c.State() != StateRecovery {
			t.Errorf("N=%d: state %v, want Recovery", n, c.State())
		}
	}
}

func TestRecoveryExitOnAckBeyondRecoveryPoint(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 50})
	c.OnPacketSent(0, 1, testMSS)
	c.OnLoss(time.Millisecond, 1, testMSS, 10*testMSS)
	if c.State() != StateRecovery {
		t.Fatal("should be in recovery")
	}
	// Ack of a pre-recovery packet keeps us in recovery.
	c.OnAck(2*time.Millisecond, 1, testMSS, time.Millisecond, 9*testMSS)
	if c.State() != StateRecovery {
		t.Fatal("ack below recovery point must not exit recovery")
	}
	// Packet sent after recovery started, then acked: exit.
	c.OnPacketSent(3*time.Millisecond, 2, testMSS)
	c.OnAck(4*time.Millisecond, 2, testMSS, time.Millisecond, 0)
	if c.State() == StateRecovery {
		t.Fatalf("state %v; ack beyond recovery point must exit recovery", c.State())
	}
}

func TestSameLossEpisodeSingleReduction(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 100})
	for i := uint64(1); i <= 10; i++ {
		c.OnPacketSent(0, i, testMSS)
	}
	c.OnLoss(time.Millisecond, 3, testMSS, 9*testMSS)
	w := c.Window()
	c.OnLoss(time.Millisecond, 4, testMSS, 8*testMSS)
	c.OnLoss(time.Millisecond, 5, testMSS, 7*testMSS)
	if c.Window() != w {
		t.Fatalf("multiple losses in one episode reduced cwnd again: %d vs %d", c.Window(), w)
	}
}

func TestMaxCwndCapAndState(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 10, MaxCwndPackets: 20})
	idx, now := uint64(1), time.Duration(0)
	idx, now = ackRTT(c, idx, now, 30, 10*time.Millisecond)
	_ = idx
	_ = now
	if c.Window() != 20*testMSS {
		t.Fatalf("cwnd %d, want capped at %d", c.Window(), 20*testMSS)
	}
	if c.State() != StateCAMaxed {
		t.Fatalf("state %v, want CongestionAvoidanceMaxed", c.State())
	}
}

func TestHyStartExitsOnDelayIncrease(t *testing.T) {
	rec := trace.New()
	c := newTestCubic(CubicConfig{InitialCwndPackets: 20, HyStart: true, Tracer: rec})
	idx := uint64(1)
	now := time.Duration(0)
	// Round 1 at base RTT 20ms (>= 8 samples, window >= 16 pkts).
	idx, now = ackRTT(c, idx, now, 12, 20*time.Millisecond)
	// Round 2: RTT jumped by 10ms (> max(20/8, 4ms)=4ms... threshold capped 16ms).
	idx, now = ackRTT(c, idx, now, 12, 30*time.Millisecond)
	idx, now = ackRTT(c, idx, now, 12, 30*time.Millisecond)
	_ = idx
	_ = now
	if !leftSlowStart(rec) {
		t.Fatal("hystart should have exited slow start on RTT increase")
	}
	if c.State() != StateCongestionAvoidance {
		t.Fatalf("state %v, want CongestionAvoidance", c.State())
	}
}

// leftSlowStart reports whether rec saw slow start hand over to
// congestion avoidance, which no loss in these scripts explains: the
// HyStart exit.
func leftSlowStart(rec *trace.Recorder) bool {
	for _, e := range rec.States {
		if e.From == StateSlowStart.String() && e.To == StateCongestionAvoidance.String() {
			return true
		}
	}
	return false
}

func TestHyStartStaysInSlowStartOnFlatRTT(t *testing.T) {
	rec := trace.New()
	c := newTestCubic(CubicConfig{InitialCwndPackets: 20, HyStart: true, Tracer: rec})
	idx, now := uint64(1), time.Duration(0)
	for i := 0; i < 5; i++ {
		idx, now = ackRTT(c, idx, now, 12, 20*time.Millisecond)
	}
	if leftSlowStart(rec) {
		t.Fatal("hystart must not exit on constant RTT")
	}
	if c.State() != StateSlowStart {
		t.Fatalf("state %v, want SlowStart", c.State())
	}
}

func TestPRRGatesSendsDuringRecovery(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 100, PRR: true})
	for i := uint64(1); i <= 100; i++ {
		c.OnPacketSent(0, i, testMSS)
	}
	inFlight := 100 * testMSS
	c.OnLoss(time.Millisecond, 10, testMSS, inFlight-testMSS)
	// Pipe (99 pkts) is above ssthresh (70): proportional reduction phase.
	// Nothing delivered yet, so PRR must block sending even though the
	// pipe exceeds nothing cwnd-wise yet.
	if c.CanSend(inFlight - testMSS) {
		t.Fatal("PRR should block sends before any recovery delivery")
	}
	// As acks arrive, roughly beta packets may be sent per packet
	// delivered.
	sends := 0
	fl := inFlight - testMSS
	for i := uint64(11); i <= 40; i++ {
		fl -= testMSS
		c.OnAck(2*time.Millisecond, i, testMSS, time.Millisecond, fl)
		for c.CanSend(fl) {
			c.OnPacketSent(2*time.Millisecond, 200+uint64(sends), testMSS)
			fl += testMSS
			sends++
			if sends > 100 {
				t.Fatal("PRR allowed unbounded sending")
			}
		}
	}
	if sends == 0 {
		t.Fatal("PRR should allow some sending as acks arrive")
	}
	if sends > 30 {
		t.Fatalf("PRR allowed %d sends for 30 delivered; expected proportional reduction", sends)
	}
}

func TestRTOCollapsesWindow(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 100})
	c.OnPacketSent(0, 1, testMSS)
	c.OnRTO(time.Second)
	if c.Window() != minCwndPkts*testMSS {
		t.Fatalf("post-RTO cwnd %d, want %d", c.Window(), minCwndPkts*testMSS)
	}
	if c.State() != StateRTO {
		t.Fatalf("state %v, want RetransmissionTimeout", c.State())
	}
	// First ack returns to slow start.
	c.OnPacketSent(time.Second+time.Millisecond, 2, testMSS)
	c.OnAck(time.Second+10*time.Millisecond, 2, testMSS, 9*time.Millisecond, 0)
	if c.State() != StateSlowStart {
		t.Fatalf("state after post-RTO ack %v, want SlowStart", c.State())
	}
}

func TestAppLimitedStateAndNoGrowth(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 10})
	c.OnPacketSent(0, 1, testMSS)
	c.SetAppLimited(time.Millisecond, LimitApp)
	if c.State() != StateApplicationLimited {
		t.Fatalf("state %v, want ApplicationLimited", c.State())
	}
	w := c.Window()
	c.OnAck(2*time.Millisecond, 1, testMSS, time.Millisecond, 0)
	if c.Window() != w {
		t.Fatal("app-limited window must not grow")
	}
	c.SetAppLimited(3*time.Millisecond, LimitNone)
	if c.State() != StateSlowStart {
		t.Fatalf("state %v, want SlowStart after app-limited clears", c.State())
	}
}

func TestTLPStateTransient(t *testing.T) {
	c := newTestCubic(CubicConfig{})
	c.OnPacketSent(0, 1, testMSS)
	c.OnTLP(time.Millisecond)
	if c.State() != StateTLP {
		t.Fatalf("state %v, want TailLossProbe", c.State())
	}
	c.OnPacketSent(time.Millisecond, 2, testMSS)
	c.OnAck(2*time.Millisecond, 2, testMSS, time.Millisecond, 0)
	if c.State() == StateTLP {
		t.Fatal("TLP state should clear on next ack")
	}
}

func TestSSThreshBugCausesEarlySlowStartExit(t *testing.T) {
	// The paper's Chromium-52 bug: ssthresh stuck low -> early slow start
	// exit -> much slower window growth.
	buggy := newTestCubic(CubicConfig{InitialCwndPackets: 10, InitialSSThreshPackets: 15})
	fixed := newTestCubic(CubicConfig{InitialCwndPackets: 10})
	idx1, now1 := uint64(1), time.Duration(0)
	idx2, now2 := uint64(1), time.Duration(0)
	for i := 0; i < 10; i++ {
		idx1, now1 = ackRTT(buggy, idx1, now1, 20, 10*time.Millisecond)
		idx2, now2 = ackRTT(fixed, idx2, now2, 20, 10*time.Millisecond)
	}
	if buggy.Window() >= fixed.Window() {
		t.Fatalf("buggy ssthresh cwnd %d should be far below fixed %d", buggy.Window(), fixed.Window())
	}
}

func TestPacingRateFactors(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 10, Pacing: true, InitialSSThreshPackets: 5})
	c.OnPacketSent(0, 1, testMSS)
	c.OnAck(100*time.Millisecond, 1, testMSS, 100*time.Millisecond, 0)
	// Now in CA (cwnd > ssthresh): factor 1.25.
	want := 1.25 * float64(c.Window()) / 0.1
	if got := c.PacingRate(); got < want*0.99 || got > want*1.01 {
		t.Fatalf("CA pacing %v, want %v", got, want)
	}
	noPace := newTestCubic(CubicConfig{})
	if noPace.PacingRate() != 0 {
		t.Fatal("pacing disabled should return 0")
	}
	ss := newTestCubic(CubicConfig{InitialCwndPackets: 10, Pacing: true})
	c2 := ss
	c2.OnPacketSent(0, 1, testMSS)
	c2.OnAck(100*time.Millisecond, 1, testMSS, 100*time.Millisecond, 0)
	wantSS := 2.0 * float64(c2.Window()) / 0.1
	if got := c2.PacingRate(); got < wantSS*0.99 || got > wantSS*1.01 {
		t.Fatalf("slow-start pacing %v, want %v", got, wantSS)
	}
}

func TestCubicWindowGrowsTowardWmax(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 100})
	// Grow in slow start a bit, then lose.
	idx, now := uint64(1), time.Duration(0)
	idx, now = ackRTT(c, idx, now, 50, 20*time.Millisecond)
	wBefore := c.Window()
	c.OnPacketSent(now, idx, testMSS)
	c.OnLoss(now, idx, testMSS, 100*testMSS)
	idx++
	// Exit recovery.
	c.OnPacketSent(now, idx, testMSS)
	c.OnAck(now+20*time.Millisecond, idx, testMSS, 20*time.Millisecond, 0)
	idx++
	now += 20 * time.Millisecond
	// Cubic should grow back toward (but concavely below) Wmax.
	for i := 0; i < 30; i++ {
		idx, now = ackRTT(c, idx, now, 60, 20*time.Millisecond)
	}
	if c.Window() < int(0.8*float64(wBefore)) {
		t.Fatalf("cubic failed to regrow: %d vs pre-loss %d", c.Window(), wBefore)
	}
}

func TestStateTransitionsRecorded(t *testing.T) {
	rec := trace.New()
	c := newTestCubic(CubicConfig{InitialCwndPackets: 10, Tracer: rec})
	c.OnPacketSent(0, 1, testMSS)
	c.OnLoss(time.Millisecond, 1, testMSS, 0)
	c.OnPacketSent(2*time.Millisecond, 2, testMSS)
	c.OnAck(3*time.Millisecond, 2, testMSS, time.Millisecond, 0)
	// After recovery, cwnd == ssthresh, so the sender resumes in
	// congestion avoidance.
	path := statemachine.FromRecorder(rec, 0).Path()
	want := []string{"Init", "SlowStart", "Recovery", "CongestionAvoidance"}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
}

func TestCanSendBasic(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 10})
	if !c.CanSend(0) {
		t.Fatal("fresh controller must allow sending")
	}
	if c.CanSend(10 * testMSS) {
		t.Fatal("full window must block sending")
	}
	if !c.CanSend(9*testMSS - 1) {
		t.Fatal("one MSS of room must allow sending")
	}
}

func TestDefaultConfigs(t *testing.T) {
	q := DefaultQUICConfig()
	if q.MaxCwndPackets != 430 || q.Connections != 2 || !q.HyStart || !q.Pacing {
		t.Fatalf("bad QUIC defaults: %+v", q)
	}
	tc := DefaultTCPConfig()
	if tc.MaxCwndPackets != 0 || tc.Connections != 1 || tc.Pacing {
		t.Fatalf("bad TCP defaults: %+v", tc)
	}
}

func TestStateStrings(t *testing.T) {
	states := []State{StateInit, StateSlowStart, StateCongestionAvoidance, StateCAMaxed,
		StateApplicationLimited, StateRecovery, StateRTO, StateTLP}
	want := []string{"Init", "SlowStart", "CongestionAvoidance", "CongestionAvoidanceMaxed",
		"ApplicationLimited", "Recovery", "RetransmissionTimeout", "TailLossProbe"}
	for i, s := range states {
		if s.String() != want[i] {
			t.Errorf("state %d = %q, want %q", i, s.String(), want[i])
		}
	}
	if State(99).String() != "Unknown" {
		t.Error("unknown state string")
	}
}
