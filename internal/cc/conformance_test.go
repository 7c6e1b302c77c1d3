package cc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"quiclab/internal/trace"
)

// The conformance harness: every controller the experiments run — the
// registry's algorithms (including any registered later) and the
// calibrated Cubics the paper's figures use — is driven through the same
// scripted workloads and held to the same contract.

// fixture is one controller configuration under test. Controllers are
// built only through New and NewCubic, the two public constructors.
type fixture struct {
	name  string
	mss   int
	build func(tr *trace.Recorder) Controller
}

// fixtures lists the registry's algorithms (at testMSS), then gQUIC-34
// Cubic as the QUIC stack configures it and the variants the paper's
// ablations turn on, then Linux Cubic as the TCP stack configures it.
func fixtures() []fixture {
	var fs []fixture
	for _, name := range Algorithms() {
		name := name
		fs = append(fs, fixture{name, testMSS, func(tr *trace.Recorder) Controller {
			return MustNew(name, Config{MSS: testMSS, Tracer: tr})
		}})
	}
	cubic := func(name string, cfg CubicConfig) fixture {
		return fixture{name, cfg.MSS, func(tr *trace.Recorder) Controller {
			cfg.Tracer = tr
			return NewCubic(cfg)
		}}
	}
	gquic := func(edit func(*CubicConfig)) CubicConfig {
		cfg := DefaultQUICConfig()
		edit(&cfg)
		return cfg
	}
	return append(fs,
		cubic("gquic34", gquic(func(*CubicConfig) {})),
		cubic("gquic34-macw2000", gquic(func(c *CubicConfig) { c.MaxCwndPackets = 2000 })),
		cubic("gquic34-ssthresh100", gquic(func(c *CubicConfig) { c.InitialSSThreshPackets = 100 })),
		cubic("gquic34-nohystart", gquic(func(c *CubicConfig) { c.HyStart = false })),
		cubic("gquic34-nopacing", gquic(func(c *CubicConfig) { c.Pacing = false })),
		cubic("linux-cubic", DefaultTCPConfig()),
	)
}

// forEachFixture runs body as one subtest per fixture, handing it a
// controller with no tracer or metrics (the hot-path configuration the
// zero-alloc property measures).
func forEachFixture(t *testing.T, body func(t *testing.T, f fixture, c Controller)) {
	for _, f := range fixtures() {
		f := f
		t.Run(f.name, func(t *testing.T) { body(t, f, f.build(nil)) })
	}
}

// driveScript runs a seeded random workload — bursts of sends, acks
// with jittered RTTs, loss episodes, RTOs, TLPs and app-limited
// phases — of mss-byte packets, checking the contract after every event
// (the 2*MSS window floor, a finite non-negative pacing rate, and no
// window growth across a loss or an RTO) and returning a trajectory
// fingerprint of (window, pacing, state) after each step.
func driveScript(t testing.TB, c Controller, mss int, seed int64, steps int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	now := time.Duration(0)
	next := uint64(1)
	outstanding := []uint64{}
	inFlight := func() int { return len(outstanding) * mss }
	for i := 0; i < steps; i++ {
		now += time.Duration(100+rng.Intn(5000)) * time.Microsecond
		rtt := 20*time.Millisecond + time.Duration(rng.Intn(60))*time.Millisecond
		before, signal := c.Window(), ""
		switch r := rng.Float64(); {
		case r < 0.45 || len(outstanding) == 0: // send a burst
			for k := 0; k <= rng.Intn(3); k++ {
				c.OnPacketSent(now, next, mss)
				outstanding = append(outstanding, next)
				next++
			}
		case r < 0.90: // ack the oldest outstanding packet
			idx := outstanding[0]
			outstanding = outstanding[1:]
			c.OnAck(now, idx, mss, rtt, inFlight())
		case r < 0.96: // lose the oldest outstanding packet
			idx := outstanding[0]
			outstanding = outstanding[1:]
			c.OnLoss(now, idx, mss, inFlight())
			signal = "loss"
		case r < 0.97:
			c.OnRTO(now)
			signal = "RTO"
		case r < 0.98:
			c.OnTLP(now)
		default:
			why := LimitNone
			if rng.Intn(2) == 0 {
				why = LimitApp
			}
			c.SetAppLimited(now, why)
		}
		w, p := c.Window(), c.PacingRate()
		if w < 2*mss {
			t.Fatalf("step %d: window %d below the 2*MSS floor (%d)", i, w, 2*mss)
		}
		if p < 0 || math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatalf("step %d: pacing rate %v is not a finite non-negative number", i, p)
		}
		if signal != "" && w > before {
			t.Fatalf("step %d: window grew across a %s: %d -> %d", i, signal, before, w)
		}
		fmt.Fprintf(&b, "%d w=%d p=%.6g s=%d\n", i, w, p, c.State())
	}
	return b.String()
}

// TestConformanceInvariants holds every fixture to the contract under a
// long adversarial script (heavy loss mixed with bursts and timer
// events).
func TestConformanceInvariants(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f fixture, c Controller) {
		driveScript(t, c, f.mss, 7, 4000)
	})
}

// TestConformanceDeterminism re-runs the identical scripted workload
// and demands a byte-identical trajectory: controllers are pure state
// machines with no hidden clock or RNG.
func TestConformanceDeterminism(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f fixture, c Controller) {
		a := driveScript(t, c, f.mss, 42, 2500)
		b := driveScript(t, f.build(nil), f.mss, 42, 2500)
		if a != b {
			t.Fatalf("two identical scripted runs diverged:\nfirst %d bytes vs %d bytes",
				len(a), len(b))
		}
		if a == driveScript(t, f.build(nil), f.mss, 43, 2500) {
			t.Fatalf("different seeds produced identical trajectories — script is not exercising the controller")
		}
	})
}

// FuzzControllerScript drives any fixture through any seeded script,
// holding it to driveScript's contract and to determinism.
func FuzzControllerScript(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(500))
	f.Add(uint8(6), int64(7), uint16(4000))
	f.Fuzz(func(t *testing.T, which uint8, seed int64, steps uint16) {
		fs := fixtures()
		fx := fs[int(which)%len(fs)]
		n := int(steps % 8000)
		if a, b := driveScript(t, fx.build(nil), fx.mss, seed, n), driveScript(t, fx.build(nil), fx.mss, seed, n); a != b {
			t.Fatalf("%s: two runs of seed %d diverged", fx.name, seed)
		}
	})
}

// grow acks a clean run of mss-byte packets so the window climbs well
// above its floor before the loss-response probes below.
func grow(c Controller, mss, n int) (now time.Duration, next uint64) {
	now = 0
	next = 1
	for i := 0; i < n; i++ {
		c.OnPacketSent(now, next, mss)
		c.OnAck(now+30*time.Millisecond, next, mss, 30*time.Millisecond, mss)
		next++
		now += time.Millisecond
	}
	return now, next
}

// TestConformanceLossResponse: a loss may never grow the window, and
// algorithms that expose a slow-start threshold must pull it down from
// its initial effectively-unbounded value.
func TestConformanceLossResponse(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f fixture, c Controller) {
		now, next := grow(c, f.mss, 200)
		before := c.Window()
		c.OnPacketSent(now, next, f.mss)
		c.OnLoss(now+30*time.Millisecond, next, f.mss, before/2)
		after := c.Window()
		if after > before {
			t.Fatalf("window grew across a loss: %d -> %d", before, after)
		}
		if st, ok := c.(interface{ SSThresh() int }); ok {
			if got := st.SSThresh(); got <= 0 || got > before {
				t.Fatalf("post-loss ssthresh %d not in (0, %d]", got, before)
			}
		}
	})
}

// TestConformanceRTOResponse: an RTO is the strongest congestion
// signal; no controller may respond to it by growing the window.
func TestConformanceRTOResponse(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f fixture, c Controller) {
		now, _ := grow(c, f.mss, 200)
		before := c.Window()
		c.OnRTO(now)
		if after := c.Window(); after > before {
			t.Fatalf("window grew across an RTO: %d -> %d", before, after)
		}
	})
}

// TestConformanceCanSend pins the CanSend/Window contract: an idle
// connection may always send, and a connection at its window may not.
func TestConformanceCanSend(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f fixture, c Controller) {
		if !c.CanSend(0) {
			t.Fatal("idle connection cannot send")
		}
		if c.CanSend(c.Window()) {
			t.Fatalf("CanSend true with inFlight == Window (%d)", c.Window())
		}
	})
}

// TestConformanceZeroAlloc: the steady-state send/ack hot path must
// not allocate — these methods run per packet inside the simulator's
// innermost loop. Balanced send/ack pairs keep BBR-style delivery maps
// at constant size so map storage is reused, and a long warmup gets
// every controller past its growth phase first.
func TestConformanceZeroAlloc(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f fixture, c Controller) {
		now := time.Duration(0)
		next := uint64(1)
		pair := func() {
			c.OnPacketSent(now, next, f.mss)
			c.OnAck(now+20*time.Millisecond, next, f.mss, 20*time.Millisecond, f.mss)
			next++
			now += 100 * time.Microsecond
		}
		for i := 0; i < 4000; i++ {
			pair() // warm up: window growth, map capacity, state entry
		}
		if avg := testing.AllocsPerRun(1000, pair); avg != 0 {
			t.Fatalf("send/ack hot path allocates %.2f times per pair", avg)
		}
	})
}
