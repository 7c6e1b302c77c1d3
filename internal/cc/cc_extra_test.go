package cc

import (
	"testing"
	"time"

	"quiclab/internal/trace"
)

func TestBetaAlphaScaling(t *testing.T) {
	one := NewCubic(CubicConfig{MSS: testMSS, Connections: 1})
	two := NewCubic(CubicConfig{MSS: testMSS, Connections: 2})
	if b := one.beta(); b != 0.7 {
		t.Fatalf("N=1 beta %v, want 0.7", b)
	}
	if b := two.beta(); b != 0.85 {
		t.Fatalf("N=2 beta %v, want 0.85", b)
	}
	if one.alpha() >= two.alpha() {
		t.Fatalf("alpha must grow with N: %v vs %v", one.alpha(), two.alpha())
	}
}

func TestNEmulationGrowsFasterInCA(t *testing.T) {
	grow := func(n int) int {
		c := NewCubic(CubicConfig{MSS: testMSS, InitialCwndPackets: 30, InitialSSThreshPackets: 30, Connections: n})
		idx, now := uint64(1), time.Duration(0)
		for i := 0; i < 40; i++ {
			idx, now = ackRTT(c, idx, now, 30, 20*time.Millisecond)
		}
		return c.Window()
	}
	if g2, g1 := grow(2), grow(1); g2 <= g1 {
		t.Fatalf("N=2 CA growth (%d) should exceed N=1 (%d)", g2, g1)
	}
}

func TestFastConvergenceShrinksWmax(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 100})
	c.OnPacketSent(0, 1, testMSS)
	c.OnLoss(time.Millisecond, 1, testMSS, 50*testMSS)
	firstWmax := c.wMax
	// Recover, regrow a little, lose again at a LOWER cwnd: fast
	// convergence kicks in.
	c.OnPacketSent(2*time.Millisecond, 2, testMSS)
	c.OnAck(3*time.Millisecond, 2, testMSS, time.Millisecond, 0)
	c.OnPacketSent(4*time.Millisecond, 3, testMSS)
	c.OnLoss(5*time.Millisecond, 3, testMSS, 30*testMSS)
	if c.wMax >= firstWmax {
		t.Fatalf("fast convergence: second Wmax %v should shrink below %v", c.wMax, firstWmax)
	}
	// Fast convergence sets Wmax below the cwnd at loss.
	if c.wMax >= c.lastWMax {
		t.Fatalf("wMax %v should sit below cwnd at loss %v", c.wMax, c.lastWMax)
	}
}

func TestCwndNeverBelowFloor(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 4})
	for i := uint64(1); i < 20; i++ {
		c.OnPacketSent(time.Duration(i)*time.Millisecond, i, testMSS)
		c.OnRTO(time.Duration(i) * time.Millisecond)
	}
	if c.Window() < minCwndPkts*testMSS {
		t.Fatalf("cwnd %d below floor", c.Window())
	}
}

func TestAppLimitedDoesNotMaskRecovery(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 20})
	c.OnPacketSent(0, 1, testMSS)
	c.OnLoss(time.Millisecond, 1, testMSS, 10*testMSS)
	c.SetAppLimited(2*time.Millisecond, LimitApp)
	if c.State() != StateRecovery {
		t.Fatalf("state %v; app-limited must not mask Recovery", c.State())
	}
	// After recovery exits, the app-limited overlay shows.
	c.OnPacketSent(3*time.Millisecond, 2, testMSS)
	c.OnAck(4*time.Millisecond, 2, testMSS, time.Millisecond, 0)
	if c.State() != StateApplicationLimited {
		t.Fatalf("state %v, want ApplicationLimited after recovery", c.State())
	}
}

func TestSRTTSmoothing(t *testing.T) {
	c := newTestCubic(CubicConfig{})
	c.OnPacketSent(0, 1, testMSS)
	c.OnAck(10*time.Millisecond, 1, testMSS, 10*time.Millisecond, 0)
	if c.SRTT() != 10*time.Millisecond {
		t.Fatalf("first sample sets srtt: %v", c.SRTT())
	}
	c.OnPacketSent(11*time.Millisecond, 2, testMSS)
	c.OnAck(31*time.Millisecond, 2, testMSS, 18*time.Millisecond, 0)
	want := (10*time.Millisecond*7 + 18*time.Millisecond) / 8
	if c.SRTT() != want {
		t.Fatalf("srtt %v, want EWMA %v", c.SRTT(), want)
	}
}

func TestPacingRateWithoutSamplesUsesGuess(t *testing.T) {
	c := newTestCubic(CubicConfig{InitialCwndPackets: 10, Pacing: true})
	want := 2.0 * float64(10*testMSS) / initialRTTGuess.Seconds()
	if got := c.PacingRate(); got < want*0.99 || got > want*1.01 {
		t.Fatalf("no-sample pacing %v, want %v", got, want)
	}
}

func TestStateTrackerDedups(t *testing.T) {
	rec := trace.New()
	st := stateTracker{tracer: rec}
	st.set(1, StateSlowStart)
	st.set(2, StateSlowStart) // same state: no transition recorded
	st.set(3, StateCongestionAvoidance)
	if len(rec.States) != 2 {
		t.Fatalf("recorded %d transitions, want 2", len(rec.States))
	}
}

func TestMaxCwndUnlimitedByDefaultForTCP(t *testing.T) {
	c := NewCubic(DefaultTCPConfig())
	idx, now := uint64(1), time.Duration(0)
	for i := 0; i < 12; i++ {
		idx, now = ackRTT(c, idx, now, 200, 10*time.Millisecond)
	}
	if c.State() == StateCAMaxed {
		t.Fatal("TCP config must not hit a MACW")
	}
}

func TestBBRWindowNeverBelowMinimum(t *testing.T) {
	b := newBBR(testMSS, trace.New())
	// Starve it of samples; window must still be sane.
	if b.Window() < 4*testMSS {
		t.Fatal("window floor violated")
	}
	b.OnRTO(time.Second)
	if b.Window() < 4*testMSS {
		t.Fatal("window floor violated after RTO")
	}
}

func TestBBRCanSendRespectsWindow(t *testing.T) {
	b := newBBR(testMSS, trace.New())
	w := b.Window()
	if !b.CanSend(0) {
		t.Fatal("empty pipe must allow send")
	}
	if b.CanSend(w) {
		t.Fatal("full window must block send")
	}
}
