package quic

import (
	"testing"
	"time"

	"quiclab/internal/metrics"
	"quiclab/internal/netem"
	"quiclab/internal/sim"
	"quiclab/internal/trace"
	"quiclab/internal/transport"
	"quiclab/internal/transport/recycletest"
)

// TestHandshakeFailsOnDeadLink: with the path black-holed from the start,
// the client retransmits its handshake with exponential backoff (1s, 2s,
// 4s, 8s, 8s) and gives up with a classified handshake failure instead of
// retrying forever.
func TestHandshakeFailsOnDeadLink(t *testing.T) {
	link := fastLink()
	link.LossProb = 1.0
	tr := trace.NewDetailed()
	tb := newTestbed(1, link, Config{Tracer: tr}, Config{})
	conn := tb.client.Dial(2)
	var closedAt time.Duration = -1
	var reason string
	conn.OnClosed = func(r string) {
		closedAt = tb.sim.Now()
		reason = r
	}
	tb.sim.RunUntil(120 * time.Second)
	if closedAt < 0 {
		t.Fatal("connection never gave up")
	}
	if reason != trace.ReasonHandshakeFailure {
		t.Fatalf("close reason = %q, want %q", reason, trace.ReasonHandshakeFailure)
	}
	if conn.CloseReason() != trace.ReasonHandshakeFailure {
		t.Fatalf("CloseReason() = %q", conn.CloseReason())
	}
	// Retries at 1s, 3s, 7s, 15s, 23s; failure when the capped 8s timer
	// after the 5th retry fires at 31s.
	if closedAt != 31*time.Second {
		t.Fatalf("gave up at %v, want 31s", closedAt)
	}
	if got := conn.hsRetry.Tries() - 1; got != transport.MaxRetries {
		t.Fatalf("%d handshake retransmissions, want %d", got, transport.MaxRetries)
	}
	if n := countEvents(tr, trace.EventConnClosed, trace.ReasonHandshakeFailure); n != 1 {
		t.Fatalf("%d conn_closed events for handshake_failure, want 1", n)
	}
}

// TestHandshakeRecoversFromEarlyLoss: an outage covering only the first
// handshake flight delays but does not kill the connection — the
// retransmission timer recovers it.
func TestHandshakeRecoversFromEarlyLoss(t *testing.T) {
	tb := newTestbed(3, fastLink(), Config{}, Config{})
	tb.serveObjects(10_000)
	tb.fwd.SetDown(true)
	tb.rev.SetDown(true)
	tb.sim.Schedule(1500*time.Millisecond, func() {
		tb.fwd.SetDown(false)
		tb.rev.SetDown(false)
	})
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(30 * time.Second)
	if *done < 0 {
		t.Fatal("transfer did not complete after outage cleared")
	}
	if conn.hsRetry.Tries() < 2 {
		t.Fatal("expected handshake retransmissions during the outage")
	}
}

// TestIdleTimeoutClosesConn: a connection that goes quiet after its
// transfer is torn down at lastActivity + IdleTimeout with a classified
// reason; the peer learns of it via the CONNECTION_CLOSE frame.
func TestIdleTimeoutClosesConn(t *testing.T) {
	tr := trace.NewDetailed()
	tb := newTestbed(1, fastLink(),
		Config{Tracer: tr, IdleTimeout: 5 * time.Second},
		Config{IdleTimeout: -1})
	tb.serveObjects(10_000)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(60 * time.Second)
	if *done < 0 {
		t.Fatal("transfer did not complete")
	}
	if !conn.Closed() || conn.CloseReason() != trace.ReasonIdleTimeout {
		t.Fatalf("client close reason = %q (closed=%v), want %q",
			conn.CloseReason(), conn.Closed(), trace.ReasonIdleTimeout)
	}
	// The idle close should land ~IdleTimeout after the last activity,
	// not at the timeout measured from t=0.
	if end := conn.sim.Now(); end < 5*time.Second {
		t.Fatalf("simulation ended at %v, before the idle timeout", end)
	}
	if n := countEvents(tr, trace.EventConnClosed, trace.ReasonIdleTimeout); n != 1 {
		t.Fatalf("%d conn_closed events for idle_timeout, want 1", n)
	}
	// Server saw the CONNECTION_CLOSE and reaped its side.
	if len(tb.accepted) != 1 || !tb.accepted[0].Closed() {
		t.Fatal("server conn not closed by peer's CONNECTION_CLOSE")
	}
	if got := tb.accepted[0].CloseReason(); got != trace.ReasonPeerClosed {
		t.Fatalf("server close reason = %q, want %q", got, trace.ReasonPeerClosed)
	}
}

// TestKeepTrafficDefersIdleTimeout: periodic traffic keeps re-arming the
// idle alarm, so the connection outlives many idle-timeout periods.
func TestKeepTrafficDefersIdleTimeout(t *testing.T) {
	tb := newTestbed(1, fastLink(),
		Config{IdleTimeout: time.Second},
		Config{IdleTimeout: time.Second})
	tb.serveObjects(1000)
	conn := tb.client.Dial(2)
	conn.OnConnected(func() {
		var tick func()
		tick = func() {
			if conn.Closed() {
				return
			}
			s, err := conn.OpenStream()
			if err != nil {
				return
			}
			s.Write(300, true)
			conn.sim.Schedule(700*time.Millisecond, tick)
		}
		tick()
	})
	tb.sim.RunUntil(5 * time.Second)
	if conn.Closed() {
		t.Fatalf("conn closed (%q) despite periodic traffic", conn.CloseReason())
	}
}

// TestRTOExhaustedMidTransfer: a permanent black hole mid-transfer drives
// the sender through its full RTO backoff chain (hitting the absolute
// backoff cap on the way) and ends in a classified rto_exhausted close.
func TestRTOExhaustedMidTransfer(t *testing.T) {
	tr := trace.NewDetailed()
	tb := newTestbed(1, fastLink(),
		Config{IdleTimeout: -1},
		Config{Tracer: tr, IdleTimeout: -1})
	tb.serveObjects(4 << 20)
	conn := tb.client.Dial(2)
	fetch(tb, conn, 300)
	tb.sim.Schedule(150*time.Millisecond, func() {
		tb.fwd.SetDown(true)
		tb.rev.SetDown(true)
	})
	tb.sim.RunUntil(300 * time.Second)
	if len(tb.accepted) != 1 {
		t.Fatalf("accepted %d conns, want 1", len(tb.accepted))
	}
	sc := tb.accepted[0]
	if !sc.Closed() || sc.CloseReason() != trace.ReasonRTOExhausted {
		t.Fatalf("server close reason = %q (closed=%v), want %q",
			sc.CloseReason(), sc.Closed(), trace.ReasonRTOExhausted)
	}
	if n := countEvents(tr, trace.EventConnClosed, trace.ReasonRTOExhausted); n != 1 {
		t.Fatalf("%d conn_closed events for rto_exhausted, want 1", n)
	}
	if countEvents(tr, trace.EventRTOBackoffCapped, "") == 0 {
		t.Fatal("long backoff chain should hit the absolute RTO delay cap")
	}
}

// TestRTOBackoffDelayCap (regression): a deep consecutive-RTO shift would
// produce a multi-minute timer without the absolute cap; with it, the
// armed delay is clamped to transport.MaxRTODelay and the capped event and
// event fires.
func TestRTOBackoffDelayCap(t *testing.T) {
	tr := trace.NewDetailed()
	tb := newTestbed(1, fastLink(), Config{}, Config{Tracer: tr, IdleTimeout: -1})
	tb.serveObjects(8 << 20)
	conn := tb.client.Dial(2)
	fetch(tb, conn, 300)
	var armedAt time.Duration
	tb.sim.Schedule(200*time.Millisecond, func() {
		sc := tb.accepted[0]
		if sc.sent.live == 0 {
			t.Fatal("no packets in flight mid-transfer")
		}
		sc.tlpCount = maxTLPProbes
		sc.rtoCount = 6 // srtt+4*rttvar << 6 far exceeds the cap
		armedAt = tb.sim.Now()
		sc.setLossAlarm()
		sc.Close() // stop the transfer; only the capped arm matters
	})
	tb.sim.RunUntil(time.Second)
	if armedAt == 0 {
		t.Fatal("cap branch never exercised")
	}
	if n := countEvents(tr, trace.EventRTOBackoffCapped, ""); n != 1 {
		t.Fatalf("%d rto_backoff_capped events, want 1", n)
	}
}

// TestNetemValidationRejectsBadLink: endpoint construction goes through
// netem validation, so a malformed link config cannot be instantiated.
func TestNetemValidationRejectsBadLink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink accepted a negative loss probability")
		}
	}()
	bad := fastLink()
	bad.LossProb = -0.5
	newTestbed(1, bad, Config{}, Config{})
}

// TestRecycledConnIndistinguishableFromFresh: a record that has been
// through handshake, loss, RTO and an abnormal close comes back from
// Endpoint.Reset equal, field by field, to one never used — retained
// containers empty, bound callbacks in place. A field added to Conn and
// forgotten in retireConn fails here.
func TestRecycledConnIndistinguishableFromFresh(t *testing.T) {
	link := fastLink()
	link.LossProb = 0.02
	// The client idles out; the server, with idle teardown off, runs its
	// RTO ladder to exhaustion.
	cli := Config{Tracer: trace.NewDetailed(), ProcDelay: 20 * time.Microsecond}
	srv := Config{Tracer: trace.NewDetailed(), IdleTimeout: -1}
	srv.Tracer.Metrics, srv.Tracer.Profile = metrics.New(0, 0), true
	tb := newTestbed(3, link, cli, srv)
	tb.serveObjects(4 << 20)
	conn := tb.client.Dial(2)
	fetch(tb, conn, 300)
	tb.sim.Schedule(300*time.Millisecond, func() { // mid-transfer: black-hole both ways
		tb.fwd.SetLoss(1)
		tb.rev.SetLoss(1)
	})
	tb.sim.RunUntil(5 * time.Minute)
	st := srv.Tracer.Summary(0)
	if st.PacketsLost == 0 || st.RTOs == 0 || tb.accepted[0].CloseReason() != trace.ReasonRTOExhausted {
		t.Fatalf("server conn saw lost=%d rtos=%d close=%q; want loss, RTOs and rto_exhausted", st.PacketsLost, st.RTOs, tb.accepted[0].CloseReason())
	}
	if conn.CloseReason() != trace.ReasonIdleTimeout {
		t.Fatalf("client conn close reason %q, want idle_timeout", conn.CloseReason())
	}
	tb.sim.Reset(3)
	tb.net.Reset()
	for _, e := range []*Endpoint{tb.client, tb.server} {
		e.Reset(Config{})
		fresh := NewEndpoint(netem.NewNetwork(sim.New(1)), 9, Config{}).takeConn()
		recycled := e.takeConn()
		if err := recycled.checkSender(); err != nil {
			t.Errorf("endpoint %d: recycled record: %v", e.Addr(), err)
		}
		if diff := recycletest.Diff(recycled, fresh, "sent.slots"); len(diff) > 0 {
			t.Errorf("endpoint %d: recycled record differs from a fresh one in %v", e.Addr(), diff)
		}
	}
}

// countEvents counts tr's events of type typ whose Reason is reason.
func countEvents(tr *trace.Recorder, typ trace.EventType, reason string) int {
	n := 0
	for _, e := range tr.Events {
		if e.Type == typ && e.Reason == reason {
			n++
		}
	}
	return n
}
