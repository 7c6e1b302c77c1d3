package tcp

import (
	"testing"
	"time"

	"quiclab/internal/netem"
	"quiclab/internal/sim"
	"quiclab/internal/trace"
)

type testbed struct {
	sim    *sim.Simulator
	net    *netem.Network
	client *Endpoint
	server *Endpoint
	fwd    *netem.Link
	rev    *netem.Link
	// accepted holds server conns captured at accept time: idle teardown
	// removes them from the endpoint map, so tests inspect them here.
	accepted []*Conn
}

const testRTT = 36 * time.Millisecond

func newTestbed(seed int64, linkCfg netem.Config, clientCfg, serverCfg Config) *testbed {
	s := sim.New(seed)
	nw := netem.NewNetwork(s)
	fwd := netem.NewLink(s, linkCfg)
	rev := netem.NewLink(s, linkCfg)
	tb := &testbed{sim: s, net: nw, fwd: fwd, rev: rev}
	tb.client = NewEndpoint(nw, 1, clientCfg)
	tb.server = NewEndpoint(nw, 2, serverCfg)
	nw.SetPath(1, 2, fwd)
	nw.SetPath(2, 1, rev)
	return tb
}

func fastLink() netem.Config {
	return netem.Config{RateBps: 100_000_000, Delay: testRTT / 2}
}

// serveEcho: server sends `respSize` bytes after receiving >= reqSize app
// bytes.
func (tb *testbed) serveEcho(reqSize, respSize int) {
	tb.server.Listen(func(c *Conn) {
		tb.accepted = append(tb.accepted, c)
		got := 0
		c.OnData = func(delta int) {
			got += delta
			if got >= reqSize {
				got = -1 << 30 // respond once
				c.Write(respSize)
			}
		}
	})
}

// fetch returns a pointer to the completion time (-1 until the client has
// consumed >= respSize app bytes).
func fetch(tb *testbed, conn *Conn, reqSize, respSize int) *time.Duration {
	doneAt := new(time.Duration)
	*doneAt = -1
	got := 0
	conn.OnData = func(delta int) {
		got += delta
		if got >= respSize && *doneAt < 0 {
			*doneAt = tb.sim.Now()
		}
	}
	conn.OnConnected(func() {
		conn.Write(reqSize)
	})
	return doneAt
}

// retransmits counts the retransmitted segments in a detailed log: new
// data goes out in sequence order, so a segment starting below the end of
// everything sent before it is a retransmission.
func retransmits(rec *trace.Recorder) int {
	n, next := 0, uint64(0)
	for _, e := range rec.Events {
		if e.Type != trace.EventPacketSent {
			continue
		}
		if e.PN < next {
			n++
		}
		next = max(next, e.PN+uint64(e.Size))
	}
	return n
}

func TestHandshakeTakesThreeRTTs(t *testing.T) {
	tb := newTestbed(1, fastLink(), Config{}, Config{})
	tb.serveEcho(300, 1000)
	conn := tb.client.Dial(2)
	var connectedAt time.Duration = -1
	conn.OnConnected(func() { connectedAt = tb.sim.Now() })
	tb.sim.RunUntil(5 * time.Second)
	if connectedAt < 0 {
		t.Fatal("never connected")
	}
	// SYN/SYNACK (1 RTT) + ClientHello/ServerFlight (1 RTT) +
	// Kex/Finished (1 RTT) = 3 RTT, plus serialization.
	if connectedAt < 3*testRTT || connectedAt > 3*testRTT+20*time.Millisecond {
		t.Fatalf("connected at %v, want ~3 RTT (%v)", connectedAt, 3*testRTT)
	}
}

func TestRequestResponse(t *testing.T) {
	tb := newTestbed(1, fastLink(), Config{}, Config{})
	tb.serveEcho(300, 100_000)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 100_000)
	tb.sim.RunUntil(10 * time.Second)
	if *done < 0 {
		t.Fatal("fetch did not complete")
	}
	// >= 4 RTT (handshake + request/response) but well under a second.
	if *done < 4*testRTT || *done > time.Second {
		t.Fatalf("completed at %v", *done)
	}
}

func TestThroughputApproachesLinkRate(t *testing.T) {
	link := netem.Config{RateBps: 50_000_000, Delay: testRTT / 2}
	tb := newTestbed(3, link, Config{}, Config{})
	tb.serveEcho(300, 10<<20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 10<<20)
	tb.sim.RunUntil(60 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	ideal := time.Duration(float64(10<<20*8) / 50e6 * float64(time.Second))
	if *done > 2*ideal {
		t.Fatalf("10MB at 50Mbps took %v (ideal %v)", *done, ideal)
	}
}

func TestRecoveryUnderLoss(t *testing.T) {
	cfg := fastLink()
	cfg.LossProb = 0.02
	srv := trace.NewDetailed()
	tb := newTestbed(7, cfg, Config{}, Config{Tracer: srv})
	tb.serveEcho(300, 1<<20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 1<<20)
	tb.sim.RunUntil(60 * time.Second)
	if *done < 0 {
		t.Fatal("transfer under 2% loss did not complete")
	}
	if retransmits(srv) == 0 {
		t.Fatal("expected retransmissions under loss")
	}
}

func TestDSACKAdaptsDupThresh(t *testing.T) {
	// Jitter-induced reordering: TCP should initially misfire, detect
	// spurious retransmissions via DSACK, and raise its dupThresh.
	link := netem.Config{RateBps: 20_000_000, Delay: 56 * time.Millisecond, Jitter: 10 * time.Millisecond}
	srv := trace.New()
	tb := newTestbed(5, link, Config{}, Config{Tracer: srv})
	tb.serveEcho(300, 4<<20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 4<<20)
	tb.sim.RunUntil(120 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	for _, sc := range tb.accepted {
		if srv.Counter("spurious_rexmit") == 0 {
			t.Fatal("reordering should produce DSACK-detected spurious retransmits")
		}
		if sc.DupThresh() <= initialDupThresh {
			t.Fatalf("dupThresh %d did not adapt upward", sc.DupThresh())
		}
	}
}

func TestDSACKDisabledKeepsMisfiring(t *testing.T) {
	run := func(disable bool) (time.Duration, int) {
		link := netem.Config{RateBps: 20_000_000, Delay: 56 * time.Millisecond, Jitter: 10 * time.Millisecond}
		srv := trace.NewDetailed()
		tb := newTestbed(5, link, Config{}, Config{DisableDSACK: disable, Tracer: srv})
		tb.serveEcho(300, 4<<20)
		conn := tb.client.Dial(2)
		done := fetch(tb, conn, 300, 4<<20)
		tb.sim.RunUntil(240 * time.Second)
		if *done < 0 {
			t.Fatal("did not complete")
		}
		return *done, retransmits(srv)
	}
	tAdaptive, rexAdaptive := run(false)
	tFixed, rexFixed := run(true)
	if rexAdaptive >= rexFixed {
		t.Fatalf("DSACK adaptation should cut retransmits: adaptive=%d fixed=%d", rexAdaptive, rexFixed)
	}
	if tAdaptive > tFixed {
		t.Fatalf("DSACK adaptation should not be slower: adaptive=%v fixed=%v", tAdaptive, tFixed)
	}
}

func TestRTOWhenAllAcksLost(t *testing.T) {
	tb := newTestbed(9, fastLink(), Config{}, Config{})
	tb.serveEcho(300, 200_000)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 200_000)
	// Black-hole the reverse path briefly mid-transfer to force RTO.
	tb.sim.Schedule(4*testRTT, func() {
		tb.fwd.SetLoss(1.0)
		tb.sim.Schedule(400*time.Millisecond, func() { tb.fwd.SetLoss(0) })
	})
	tb.sim.RunUntil(60 * time.Second)
	if *done < 0 {
		t.Fatal("did not recover from blackhole")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() time.Duration {
		tb := newTestbed(11, netem.Config{RateBps: 10_000_000, Delay: 20 * time.Millisecond, LossProb: 0.01}, Config{}, Config{})
		tb.serveEcho(300, 500_000)
		conn := tb.client.Dial(2)
		done := fetch(tb, conn, 300, 500_000)
		tb.sim.RunUntil(60 * time.Second)
		return *done
	}
	a, b := run(), run()
	if a != b || a < 0 {
		t.Fatalf("nondeterministic or failed: %v vs %v", a, b)
	}
}

func TestCloseStopsActivity(t *testing.T) {
	tb := newTestbed(1, fastLink(), Config{}, Config{})
	tb.serveEcho(300, 1<<20)
	conn := tb.client.Dial(2)
	fetch(tb, conn, 300, 1<<20)
	tb.sim.RunUntil(100 * time.Millisecond)
	conn.Close()
	for _, sc := range tb.accepted {
		sc.Close()
	}
	tb.sim.Run() // must terminate
}

func TestRTTEstimateCoarse(t *testing.T) {
	tb := newTestbed(1, fastLink(), Config{}, Config{})
	tb.serveEcho(300, 500_000)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 500_000)
	tb.sim.RunUntil(10 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	for _, sc := range tb.accepted {
		if sc.SRTT() < testRTT-2*time.Millisecond || sc.SRTT() > 2*testRTT {
			t.Fatalf("srtt %v, want ~%v", sc.SRTT(), testRTT)
		}
		// Millisecond granularity: srtt must be an exact multiple of 1ms
		// only for fresh samples; smoothed value may not be. Just check
		// a sample was taken.
		if sc.SRTT() == 0 {
			t.Fatal("no RTT samples")
		}
	}
}

func TestMultipleParallelConnections(t *testing.T) {
	tb := newTestbed(2, netem.Config{RateBps: 20_000_000, Delay: testRTT / 2}, Config{}, Config{})
	tb.serveEcho(300, 500_000)
	const n = 6
	completed := 0
	for i := 0; i < n; i++ {
		conn := tb.client.Dial(2)
		got := 0
		conn.OnData = func(delta int) {
			got += delta
			if got >= 500_000 {
				got = -1 << 30
				completed++
			}
		}
		conn.OnConnected(func() { conn.Write(300) })
	}
	tb.sim.RunUntil(30 * time.Second)
	if completed != n {
		t.Fatalf("completed %d/%d connections", completed, n)
	}
}

func TestReceiveWindowAdvertised(t *testing.T) {
	tb := newTestbed(1, fastLink(), Config{RecvBuffer: 64 << 10}, Config{})
	tb.serveEcho(300, 1<<20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 1<<20)
	tb.sim.RunUntil(30 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	// With a 64KB advertised window and 36ms RTT, throughput caps at
	// ~14.5 Mbps, so 1MB takes at least ~0.55s + handshake.
	if *done < 500*time.Millisecond {
		t.Fatalf("completed at %v; receive window should have throttled", *done)
	}
}

func TestStatsAndAcks(t *testing.T) {
	cli := trace.New()
	tb := newTestbed(1, fastLink(), Config{Tracer: cli}, Config{})
	tb.serveEcho(300, 100_000)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 100_000)
	tb.sim.RunUntil(10 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	if cs := cli.Summary(0); cs.PacketsSent == 0 || cs.PacketsReceived == 0 {
		t.Fatalf("counts empty: %+v", cs)
	}
}
