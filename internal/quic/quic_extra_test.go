package quic

import (
	"testing"
	"testing/quick"
	"time"

	"quiclab/internal/netem"
	"quiclab/internal/trace"
	"quiclab/internal/wire"
)

// --- flow control ----------------------------------------------------------

func TestStreamFlowControlBlocksAndResumes(t *testing.T) {
	// A tiny stream window forces the sender to stall until window
	// updates arrive; the transfer must still complete.
	cli := Config{StreamRecvWindow: 32 << 10, ConnRecvWindow: 64 << 10}
	tb := newTestbed(1, fastLink(), cli, Config{})
	tb.serveObjects(1 << 20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(60 * time.Second)
	if *done < 0 {
		t.Fatal("flow-controlled transfer did not complete")
	}
	// With a 32KB window over a 36ms RTT the transfer cannot beat the
	// window-imposed rate (~7.3 Mbps): at least ~1.1s for 1MB.
	if *done < time.Second {
		t.Fatalf("completed at %v; a 32KB window cannot be that fast", *done)
	}
}

func TestConnFlowControlCapsAggregate(t *testing.T) {
	// Conn window below the sum of stream windows: aggregate transfer is
	// conn-window-bound.
	cli := Config{StreamRecvWindow: 4 << 20, ConnRecvWindow: 64 << 10}
	tb := newTestbed(2, fastLink(), cli, Config{})
	tb.serveObjects(512 << 10)
	conn := tb.client.Dial(2)
	completed := 0
	conn.OnConnected(func() {
		for i := 0; i < 4; i++ {
			st, err := conn.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			st.OnData = func(_ int, done bool) {
				if done {
					completed++
				}
			}
			st.Write(300, true)
		}
	})
	tb.sim.RunUntil(60 * time.Second)
	if completed != 4 {
		t.Fatalf("completed %d/4 conn-flow-controlled streams", completed)
	}
}

func TestBlockedFrameEmittedWhenFlowBlocked(t *testing.T) {
	cli := Config{StreamRecvWindow: 16 << 10, ConnRecvWindow: 32 << 10}
	tb := newTestbed(3, fastLink(), cli, Config{})
	tb.serveObjects(1 << 20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	// Snoop server->client packets for BLOCKED frames.
	sawBlocked := false
	orig := tb.rev.Out
	tb.rev.Out = func(p *netem.Packet) {
		if qp, ok := p.Payload.(*packet); ok {
			for _, f := range qp.frames {
				if f.Type() == wire.FrameBlocked {
					sawBlocked = true
				}
			}
		}
		orig(p)
	}
	tb.sim.RunUntil(60 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	if !sawBlocked {
		t.Fatal("a flow-blocked sender should emit BLOCKED frames")
	}
}

// --- handshake robustness ----------------------------------------------------

func TestHandshakeSurvivesREJLoss(t *testing.T) {
	// Black-hole the server->client path during the handshake so the REJ
	// is lost; retransmission must recover it.
	tb := newTestbed(4, fastLink(), Config{}, Config{})
	tb.serveObjects(10_000)
	tb.rev.SetLoss(1.0)
	tb.sim.Schedule(300*time.Millisecond, func() { tb.rev.SetLoss(0) })
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(30 * time.Second)
	if *done < 0 {
		t.Fatal("handshake did not recover from REJ loss")
	}
}

func TestHandshakeSurvivesCHLOLoss(t *testing.T) {
	tb := newTestbed(5, fastLink(), Config{}, Config{})
	tb.serveObjects(10_000)
	tb.fwd.SetLoss(1.0)
	tb.sim.Schedule(300*time.Millisecond, func() { tb.fwd.SetLoss(0) })
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(30 * time.Second)
	if *done < 0 {
		t.Fatal("handshake did not recover from CHLO loss")
	}
}

func TestNonResumableREJDenies0RTT(t *testing.T) {
	tb := newTestbed(6, fastLink(), Config{}, Config{No0RTTServer: true})
	tb.serveObjects(5_000)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(10 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	if tb.client.Has0RTT(2) {
		t.Fatal("client must not cache a non-resumable server config")
	}
}

// --- protocol details ---------------------------------------------------------

func TestStopWaitingPrunesReceiverState(t *testing.T) {
	tb := newTestbed(7, fastLink(), Config{}, Config{})
	tb.serveObjects(2 << 20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(30 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	// The client tracked thousands of pns; the ranges set must stay tiny
	// because contiguous ranges merge.
	if n := conn.rcvdPNs.NumRanges(); n > 8 {
		t.Fatalf("receiver pn state not compact: %d ranges", n)
	}
}

func TestAckOnlyPacketsNotRetransmittable(t *testing.T) {
	tb := newTestbed(8, fastLink(), Config{}, Config{})
	tb.serveObjects(1 << 20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(30 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	// The client mostly acks; its in-flight tracking must be empty at
	// the end (ack-only packets are never tracked).
	if conn.inFlight > 2*MaxPacketSize {
		t.Fatalf("client inFlight %d; ack-only packets should not count", conn.inFlight)
	}
}

func TestFinOnlyStreamCompletes(t *testing.T) {
	tb := newTestbed(9, fastLink(), Config{}, Config{})
	// Server responds with a 0-byte object (fin-only response).
	tb.server.Listen(func(c *Conn) {
		c.OnStream = func(s *Stream) {
			s.OnData = func(_ int, done bool) {
				if done {
					s.Write(0, true)
				}
			}
		}
	})
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(10 * time.Second)
	if *done < 0 {
		t.Fatal("fin-only response never delivered")
	}
}

func TestWriteAfterFinPanics(t *testing.T) {
	tb := newTestbed(10, fastLink(), Config{}, Config{})
	tb.serveObjects(1000)
	conn := tb.client.Dial(2)
	tb.sim.RunUntil(time.Second)
	st, err := conn.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st.Write(10, true)
	defer func() {
		if recover() == nil {
			t.Fatal("write after fin should panic")
		}
	}()
	st.Write(10, false)
}

func TestUnknownConnectionDroppedWhenNotListening(t *testing.T) {
	tb := newTestbed(11, fastLink(), Config{}, Config{})
	// No Listen on the server: dial must simply never complete, without
	// panics or runaway retransmission (the client gives up after
	// maxRTOs).
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.Run() // must terminate
	if *done >= 0 {
		t.Fatal("fetch against a non-listening server cannot complete")
	}
}

func TestSpuriousAccountingExactlyOncePerPacket(t *testing.T) {
	link := netem.Config{RateBps: 20_000_000, Delay: 56 * time.Millisecond, Jitter: 10 * time.Millisecond}
	srv := trace.New()
	tb := newTestbed(12, link, Config{}, Config{Tracer: srv})
	tb.serveObjects(1 << 20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(60 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	if fl, lost := srv.Counter("false_loss"), srv.Counter("declared_lost"); fl > lost {
		t.Fatalf("false losses (%d) cannot exceed declared losses (%d)", fl, lost)
	}
}

func TestProcessingQueuePreservesOrder(t *testing.T) {
	// With a per-packet processing delay, stream data must still be
	// consumed in order and exactly once.
	cli := Config{ProcDelay: 50 * time.Microsecond}
	tb := newTestbed(13, fastLink(), cli, Config{})
	tb.serveObjects(500 << 10)
	conn := tb.client.Dial(2)
	var consumed int
	var doneAt time.Duration = -1
	conn.OnConnected(func() {
		st, _ := conn.OpenStream()
		st.OnData = func(delta int, done bool) {
			if delta < 0 {
				t.Fatal("negative delta")
			}
			consumed += delta
			if done {
				doneAt = tb.sim.Now()
			}
		}
		st.Write(300, true)
	})
	tb.sim.RunUntil(30 * time.Second)
	if doneAt < 0 {
		t.Fatal("did not complete")
	}
	want := 500 << 10 // serveObjects writes the object bytes exactly
	if consumed != want {
		t.Fatalf("consumed %d bytes, want exactly %d", consumed, want)
	}
}

// Property: for any loss/jitter mix, a transfer either completes with
// exactly the right byte count or doesn't complete — never a corrupted
// count. (Failure injection + integrity invariant.)
func TestPropertyTransferIntegrity(t *testing.T) {
	f := func(seed int64, lossTenths, jitterMs uint8) bool {
		loss := float64(lossTenths%30) / 1000 // 0 - 2.9%
		jit := time.Duration(jitterMs%8) * time.Millisecond
		link := netem.Config{
			RateBps: 20_000_000,
			Delay:   20 * time.Millisecond,
			Jitter:  jit,
		}
		link.LossProb = loss
		tb := newTestbed(seed, link, Config{}, Config{})
		tb.serveObjects(200 << 10)
		conn := tb.client.Dial(2)
		var consumed int
		completed := false
		conn.OnConnected(func() {
			st, err := conn.OpenStream()
			if err != nil {
				return
			}
			st.OnData = func(delta int, done bool) {
				consumed += delta
				if done {
					completed = true
				}
			}
			st.Write(300, true)
		})
		tb.sim.RunUntil(120 * time.Second)
		if !completed {
			return loss > 0 // only lossy runs may fail to complete
		}
		return consumed == 200<<10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointAddrAndSessionCache(t *testing.T) {
	tb := newTestbed(14, fastLink(), Config{}, Config{})
	if tb.client.Addr() != 1 || tb.server.Addr() != 2 {
		t.Fatal("addrs")
	}
	tb.serveObjects(1000)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(5 * time.Second)
	if *done < 0 {
		t.Fatal("did not complete")
	}
	if !tb.client.Has0RTT(2) {
		t.Fatal("session cache should be warm")
	}
	tb.client.ClearSessionCache()
	if tb.client.Has0RTT(2) {
		t.Fatal("ClearSessionCache failed")
	}
}

func TestRetransmittedStreamFramesSplitAcrossPackets(t *testing.T) {
	// Force a loss of a full-size packet, then shrink available budget by
	// piggybacked acks: retransmission must still fit (splitting).
	cfg := fastLink()
	cfg.LossProb = 0.05
	tb := newTestbed(15, cfg, Config{}, Config{})
	tb.serveObjects(3 << 20)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(120 * time.Second)
	if *done < 0 {
		t.Fatal("lossy transfer did not complete")
	}
}

// loadPage fetches n objects over conn the way a browser does: as many
// streams as MSPC allows, the next opened as one completes. It returns the
// count of completed objects.
func loadPage(conn *Conn, n, reqSize int) *int {
	completed, launched := new(int), 0
	var launch func()
	launch = func() {
		for launched < n && conn.CanOpenStream() {
			s, err := conn.OpenStream()
			if err != nil {
				return
			}
			launched++
			s.OnData = func(_ int, done bool) {
				if done {
					*completed++
					launch()
				}
			}
			s.Write(reqSize, true)
		}
	}
	conn.OnConnected(launch)
	return completed
}

// TestSenderInvariantsUnderBlockingAndLoss is the scenario the sender's
// invariants are most exposed in (the testbed checks them after every
// event): 60 objects behind MSPC 10, 2 % loss, and windows small enough —
// 16 KiB a stream, 48 KiB the connection — that the server's streams block
// at both levels while others finish and leave the rotation. Every fifth
// object is large: ten streams of any size fill the connection window, and
// the two large ones left when the small ones are done cannot, so they
// stop at their own.
func TestSenderInvariantsUnderBlockingAndLoss(t *testing.T) {
	link := fastLink()
	link.LossProb = 0.02
	cli := Config{MaxStreams: 10, StreamRecvWindow: 16 << 10, ConnRecvWindow: 48 << 10}
	srvTrace := trace.New()
	tb := newTestbed(21, link, cli, Config{Tracer: srvTrace})
	tb.server.Listen(func(c *Conn) {
		tb.accepted = append(tb.accepted, c)
		c.OnStream = func(s *Stream) {
			s.OnData = func(_ int, done bool) {
				if size := 8_000; done {
					if s.ID()%10 == 1 {
						size = 120_000
					}
					s.Write(size, true)
				}
			}
		}
	})
	completed := loadPage(tb.client.Dial(2), 60, 300)
	streamBlocked, connBlocked := 0, 0
	for *completed < 60 && tb.sim.Now() < 120*time.Second && tb.sim.Step() {
		tb.checkSenders()
		if len(tb.accepted) == 0 {
			continue
		}
		srv := tb.accepted[0]
		if pending, sendable := srv.streamDemand(); pending && !sendable {
			if srv.connSent >= srv.connSendLimit {
				connBlocked++
			} else {
				streamBlocked++
			}
		}
	}
	if *completed != 60 {
		t.Fatalf("completed %d/60 objects", *completed)
	}
	t.Logf("server stream-blocked after %d events, connection-blocked after %d", streamBlocked, connBlocked)
	if streamBlocked == 0 || connBlocked == 0 {
		t.Fatalf("server was stream-blocked after %d events and connection-blocked after %d; the scenario needs both", streamBlocked, connBlocked)
	}
	if srvTrace.Counter("declared_lost") == 0 {
		t.Fatal("no packet was declared lost at 2 % loss")
	}
}

// TestSchedulerWorkDoesNotGrowWithStreamsEverOpened counts, not times: on a
// page of 5 KiB objects the scheduler examines a bounded number of streams
// for each packet it sends, and a page twice as long costs about twice as
// much in total. (The walks over every stream ever opened, finished ones
// included, examined 214 031 and 867 753 streams on these two pages.)
func TestSchedulerWorkDoesNotGrowWithStreamsEverOpened(t *testing.T) {
	examined := func(objects int) (streams, packets int) {
		link := netem.Config{RateBps: 50_000_000, Delay: testRTT / 2}
		rec := trace.New() // both ends: it counts every packet either sends
		tb := newTestbed(1, link, Config{Tracer: rec}, Config{Tracer: rec})
		tb.serveObjects(5 << 10)
		conn := tb.client.Dial(2)
		completed := loadPage(conn, objects, 300)
		tb.sim.RunUntil(30 * time.Second)
		if *completed != objects {
			t.Fatalf("completed %d/%d objects", *completed, objects)
		}
		return conn.examined + tb.accepted[0].examined, rec.Summary(0).PacketsSent
	}
	s100, p100 := examined(100)
	s200, p200 := examined(200)
	t.Logf("100 objects: %d streams examined over %d packets; 200 objects: %d over %d", s100, p100, s200, p200)
	const perPacket = 4
	if s200 > perPacket*p200 {
		t.Errorf("200 objects: %d streams examined for %d packets sent, more than %d a packet", s200, p200, perPacket)
	}
	if 2*s200 > 5*s100 {
		t.Errorf("examined %d streams for 200 objects and %d for 100: more than 2.5×", s200, s100)
	}
}
