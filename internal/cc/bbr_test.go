package cc

import (
	"testing"
	"time"

	"quiclab/internal/statemachine"
	"quiclab/internal/trace"
)

// driveBBR feeds rounds of sent+acked packets at a fixed delivery rate.
func driveBBR(b *bbr, idx uint64, now time.Duration, rounds, perRound int, rtt time.Duration) (uint64, time.Duration) {
	for r := 0; r < rounds; r++ {
		base := idx
		for i := 0; i < perRound; i++ {
			b.OnPacketSent(now, idx, testMSS)
			idx++
		}
		now += rtt
		for i := 0; i < perRound; i++ {
			b.OnAck(now, base+uint64(i), testMSS, rtt, 0)
		}
	}
	return idx, now
}

func TestBBRStartsInStartup(t *testing.T) {
	b := newBBR(testMSS, trace.New())
	if b.state != bbrStartup {
		t.Fatalf("state %q, want Startup", b.state)
	}
	if b.Window() < 4*testMSS {
		t.Fatal("window too small")
	}
	if b.PacingRate() <= 0 {
		t.Fatal("pacing rate must be positive before samples")
	}
}

func TestBBRStartupToDrainToProbeBW(t *testing.T) {
	rec := trace.New()
	b := newBBR(testMSS, rec)
	// Constant delivery rate: bandwidth plateaus -> exit startup.
	idx, now := driveBBR(b, 1, 0, 10, 20, 20*time.Millisecond)
	_ = idx
	_ = now
	if b.state != bbrProbeBW {
		t.Fatalf("state %q, want ProbeBW after plateau", b.state)
	}
	path := statemachine.FromRecorder(rec, 0).Path()
	sawDrain := false
	for _, s := range path {
		if s == bbrDrain {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Fatalf("path %v should pass through Drain", path)
	}
}

func TestBBRBandwidthEstimate(t *testing.T) {
	b := newBBR(testMSS, trace.New())
	// 20 packets per 20ms RTT = 1000 pkts/s = 1 MB/s.
	driveBBR(b, 1, 0, 8, 20, 20*time.Millisecond)
	bw := b.bandwidth()
	if bw < 0.5e6 || bw > 2.5e6 {
		t.Fatalf("bandwidth estimate %v B/s, want ~1e6", bw)
	}
}

func TestBBRProbeRTTWindowPinned(t *testing.T) {
	b := newBBR(testMSS, trace.New())
	driveBBR(b, 1, 0, 8, 20, 20*time.Millisecond)
	b.state = bbrProbeRTT
	if b.Window() != 4*testMSS {
		t.Fatalf("ProbeRTT window %d, want %d", b.Window(), 4*testMSS)
	}
}

// TestBBRRTOInProbeRTTKeepsTheFloor: an RTO never grows the window, so
// one during ProbeRTT (window pinned at 4 packets) must not lift it to
// Recovery's 2 x BDP.
func TestBBRRTOInProbeRTTKeepsTheFloor(t *testing.T) {
	b := newBBR(testMSS, trace.New())
	driveBBR(b, 1, 0, 8, 20, 20*time.Millisecond)
	b.state = bbrProbeRTT
	b.OnRTO(time.Second)
	if b.state != bbrProbeRTT || b.Window() != 4*testMSS {
		t.Fatalf("after an RTO in ProbeRTT: state %q, window %d, want ProbeRTT at %d", b.state, b.Window(), 4*testMSS)
	}
}

func TestBBRLossEntersRecovery(t *testing.T) {
	rec := trace.New()
	b := newBBR(testMSS, rec)
	driveBBR(b, 1, 0, 8, 20, 20*time.Millisecond)
	b.OnPacketSent(time.Second, 1000, testMSS)
	b.OnLoss(time.Second, 1000, testMSS, 10*testMSS)
	if b.state != bbrRecovery {
		t.Fatalf("state %q, want Recovery", b.state)
	}
	if b.State() != StateRecovery {
		t.Fatal("Table-3 mapping should be Recovery")
	}
	// Next ack cycles out of recovery.
	b.OnPacketSent(time.Second+time.Millisecond, 1001, testMSS)
	b.OnAck(time.Second+21*time.Millisecond, 1001, testMSS, 20*time.Millisecond, 0)
	if b.state == bbrRecovery {
		t.Fatal("recovery should exit after a round")
	}
}

func TestBBRProbeBWCyclesGains(t *testing.T) {
	b := newBBR(testMSS, trace.New())
	idx, now := driveBBR(b, 1, 0, 10, 20, 20*time.Millisecond)
	if b.state != bbrProbeBW {
		t.Skip("did not reach ProbeBW")
	}
	gains := map[float64]bool{}
	for r := 0; r < 20; r++ {
		idx, now = driveBBR(b, idx, now, 1, 20, 20*time.Millisecond)
		gains[b.pacingGain] = true
	}
	if !gains[1.25] || !gains[0.75] {
		t.Fatalf("gain cycle incomplete: %v", gains)
	}
}

func TestBBRStateTransitionsTraced(t *testing.T) {
	rec := trace.New()
	b := newBBR(testMSS, rec)
	driveBBR(b, 1, 0, 10, 20, 20*time.Millisecond)
	if len(rec.States) < 2 {
		t.Fatalf("expected >=2 transitions, got %v", rec.States)
	}
	if rec.States[0].From != "Init" || rec.States[0].To != bbrStartup {
		t.Fatalf("first transition %+v", rec.States[0])
	}
}
