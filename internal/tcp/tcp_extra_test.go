package tcp

import (
	"testing"
	"testing/quick"
	"time"

	"quiclab/internal/netem"
	"quiclab/internal/trace"
)

// --- handshake robustness -----------------------------------------------------

func TestSYNLossRetries(t *testing.T) {
	tb := newTestbed(1, fastLink(), Config{}, Config{})
	tb.serveEcho(300, 10_000)
	// Lose the first SYN; the 1s retry must recover.
	tb.fwd.SetLoss(1.0)
	tb.sim.Schedule(200*time.Millisecond, func() { tb.fwd.SetLoss(0) })
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 10_000)
	tb.sim.RunUntil(30 * time.Second)
	if *done < 0 {
		t.Fatal("connection never recovered from SYN loss")
	}
	if *done < time.Second {
		t.Fatalf("completed at %v; the SYN retry timer is 1s", *done)
	}
}

func TestHandshakeByteProgress(t *testing.T) {
	tb := newTestbed(2, fastLink(), Config{}, Config{})
	tb.serveEcho(300, 1000)
	conn := tb.client.Dial(2)
	var clientConnectedAt, serverConnectedAt time.Duration = -1, -1
	conn.OnConnected(func() { clientConnectedAt = tb.sim.Now() })
	tb.sim.Schedule(20*time.Millisecond, func() { // after SYN arrival, before TLS completes
		for _, sc := range tb.accepted {
			sc.OnConnected(func() { serverConnectedAt = tb.sim.Now() })
		}
	})
	tb.sim.RunUntil(5 * time.Second)
	if clientConnectedAt < 0 || serverConnectedAt < 0 {
		t.Fatal("handshake incomplete")
	}
	// The server finishes (client Finished received) half an RTT before
	// the client (server Finished received).
	if serverConnectedAt >= clientConnectedAt {
		t.Fatalf("server connected at %v, client at %v; server should finish first",
			serverConnectedAt, clientConnectedAt)
	}
}

// --- loss machinery -------------------------------------------------------------

func TestTLPRecoversTailLossWithoutRTO(t *testing.T) {
	srv := trace.New()
	tb := newTestbed(3, fastLink(), Config{}, Config{Tracer: srv})
	tb.serveEcho(300, 50_000)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 50_000)
	// Drop a brief window near the end of the transfer.
	tb.sim.Schedule(5*testRTT, func() {
		tb.rev.SetLoss(0.5)
		tb.sim.Schedule(5*time.Millisecond, func() { tb.rev.SetLoss(0) })
	})
	tb.sim.RunUntil(30 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	// Recovery should come from fast paths (TLP/fast retransmit), not
	// a pile of RTOs.
	if st := srv.Summary(0); st.RTOs > 2 {
		t.Fatalf("too many RTOs for a brief tail loss: %+v", st)
	}
}

func TestDupThreshCapped(t *testing.T) {
	link := netem.Config{RateBps: 20_000_000, Delay: 56 * time.Millisecond, Jitter: 15 * time.Millisecond}
	tb := newTestbed(4, link, Config{}, Config{})
	tb.serveEcho(300, 8<<20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 8<<20)
	tb.sim.RunUntil(300 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	for _, sc := range tb.accepted {
		if sc.DupThresh() > maxDupThresh {
			t.Fatalf("dupThresh %d exceeds cap %d", sc.DupThresh(), maxDupThresh)
		}
	}
}

func TestNoSpuriousRetransmitsOnCleanLink(t *testing.T) {
	srv := trace.NewDetailed()
	tb := newTestbed(5, fastLink(), Config{}, Config{Tracer: srv})
	tb.serveEcho(300, 5<<20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 5<<20)
	tb.sim.RunUntil(30 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	if st := srv.Summary(0); retransmits(srv) != 0 || st.SpuriousLosses != 0 || st.RTOs != 0 {
		t.Fatalf("clean link must not retransmit: %d retransmits, %+v", retransmits(srv), st)
	}
	for _, sc := range tb.accepted {
		if sc.DupThresh() != initialDupThresh {
			t.Fatalf("dupThresh moved on a clean link: %d", sc.DupThresh())
		}
	}
}

func TestReceiveWindowBackpressureWithSlowApp(t *testing.T) {
	// A client that processes segments slowly advertises a shrinking
	// window; the sender must respect it and the transfer still finishes.
	cli := Config{ProcDelay: 200 * time.Microsecond, RecvBuffer: 256 << 10}
	link := netem.Config{RateBps: 100_000_000, Delay: testRTT / 2}
	tb := newTestbed(6, link, cli, Config{})
	tb.serveEcho(300, 5<<20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 5<<20)
	tb.sim.RunUntil(60 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	// Drain-rate cap: ~1448B / 200us = ~58 Mbps; 5MB >= ~0.7s.
	if *done < 600*time.Millisecond {
		t.Fatalf("completed at %v; slow receiver should throttle", *done)
	}
}

// --- integrity -------------------------------------------------------------------

// Property: the bytestream delivers exactly once, in order, for any
// loss/jitter mix (failure injection + integrity invariant).
func TestPropertyBytestreamIntegrity(t *testing.T) {
	f := func(seed int64, lossTenths, jitterMs uint8) bool {
		loss := float64(lossTenths%30) / 1000
		jit := time.Duration(jitterMs%8) * time.Millisecond
		link := netem.Config{
			RateBps:  20_000_000,
			Delay:    20 * time.Millisecond,
			Jitter:   jit,
			LossProb: loss,
		}
		tb := newTestbed(seed, link, Config{}, Config{})
		const respSize = 200 << 10
		tb.serveEcho(300, respSize)
		conn := tb.client.Dial(2)
		var consumed int
		conn.OnData = func(delta int) {
			if delta <= 0 {
				t.Fatal("non-positive delta")
			}
			consumed += delta
		}
		conn.OnConnected(func() { conn.Write(300) })
		tb.sim.RunUntil(120 * time.Second)
		if consumed > respSize {
			return false // over-delivery is always a bug
		}
		if consumed < respSize {
			return loss > 0 // only lossy runs may be incomplete
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	// Both sides stream simultaneously.
	tb := newTestbed(7, fastLink(), Config{}, Config{})
	const size = 1 << 20
	tb.server.Listen(func(c *Conn) {
		got := 0
		c.OnData = func(d int) {
			got += d
			if got == size {
				c.Write(size)
			}
		}
	})
	conn := tb.client.Dial(2)
	var got int
	var doneAt time.Duration = -1
	conn.OnData = func(d int) {
		got += d
		if got >= size {
			doneAt = tb.sim.Now()
		}
	}
	conn.OnConnected(func() { conn.Write(size) })
	tb.sim.RunUntil(30 * time.Second)
	if doneAt < 0 {
		t.Fatal("bidirectional transfer incomplete")
	}
}

func TestSmallWritesCoalesce(t *testing.T) {
	// Many small writes should not produce one segment each once the
	// stream is flowing (they coalesce into MSS-sized segments).
	cli := trace.New()
	tb := newTestbed(8, fastLink(), Config{Tracer: cli}, Config{})
	tb.server.Listen(func(c *Conn) {})
	conn := tb.client.Dial(2)
	conn.OnConnected(func() {
		for i := 0; i < 1000; i++ {
			conn.Write(100) // 100KB total
		}
	})
	tb.sim.RunUntil(10 * time.Second)
	sent := cli.Summary(0).PacketsSent // data segments
	// 100KB coalesced is ~70 segments; allow generous slack but far
	// fewer than 1000.
	if sent > 300 {
		t.Fatalf("%d segments for 1000 tiny writes; no coalescing", sent)
	}
}

func TestCloseDuringHandshake(t *testing.T) {
	tb := newTestbed(9, fastLink(), Config{}, Config{})
	tb.serveEcho(300, 1000)
	conn := tb.client.Dial(2)
	tb.sim.RunUntil(10 * time.Millisecond) // mid-handshake
	conn.Close()
	for _, sc := range tb.accepted {
		sc.Close()
	}
	tb.sim.Run() // must terminate without timer leaks
}

func TestPipeNeverNegative(t *testing.T) {
	cfg := fastLink()
	cfg.LossProb = 0.05
	tb := newTestbed(10, cfg, Config{}, Config{})
	tb.serveEcho(300, 2<<20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 2<<20)
	probe := func() {
		for _, sc := range tb.accepted {
			if sc.pipe() < 0 {
				t.Fatal("pipe went negative")
			}
		}
	}
	for i := 1; i < 100; i++ {
		tb.sim.Schedule(time.Duration(i)*100*time.Millisecond, probe)
	}
	tb.sim.RunUntil(60 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
}
