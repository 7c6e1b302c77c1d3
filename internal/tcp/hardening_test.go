package tcp

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

// TestSYNRetransmitBackoff: with the path black-holed from the start, the
// client retransmits its SYN with exponential backoff (1s, 2s, 4s, 8s,
// 8s) and gives up with a classified handshake failure — the model of
// Linux's tcp_syn_retries behaviour.
func TestSYNRetransmitBackoff(t *testing.T) {
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
	// SYNs at 0s, 1s, 3s, 7s, 15s, 23s; failure when the capped 8s timer
	// after the 5th retry fires at 31s.
	if closedAt != 31*time.Second {
		t.Fatalf("gave up at %v, want 31s", closedAt)
	}
	if got := conn.synRetry.Tries() - 1; got != transport.MaxRetries {
		t.Fatalf("%d SYN retransmissions, want %d", got, transport.MaxRetries)
	}
	if n := countEvents(tr, trace.EventConnClosed, trace.ReasonHandshakeFailure); n != 1 {
		t.Fatalf("%d conn_closed events for handshake_failure, want 1", n)
	}
}

// TestSYNRetryRecoversHandshake: an outage covering only the first SYN
// delays but does not kill the connection.
func TestSYNRetryRecoversHandshake(t *testing.T) {
	tb := newTestbed(3, fastLink(), Config{}, Config{})
	tb.serveEcho(300, 10_000)
	tb.fwd.SetDown(true)
	tb.rev.SetDown(true)
	tb.sim.Schedule(1500*time.Millisecond, func() {
		tb.fwd.SetDown(false)
		tb.rev.SetDown(false)
	})
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 10_000)
	tb.sim.RunUntil(30 * time.Second)
	if *done < 0 {
		t.Fatal("transfer did not complete after outage cleared")
	}
	if conn.synRetry.Tries() < 2 {
		t.Fatal("expected SYN retransmissions during the outage")
	}
}

// TestIdleTimeoutClosesConn: a TCP connection that goes quiet is torn
// down at lastActivity + IdleTimeout. The model has no FIN/RST, so the
// peer reaps its own side through its own idle timer.
func TestIdleTimeoutClosesConn(t *testing.T) {
	tr := trace.NewDetailed()
	tb := newTestbed(1, fastLink(),
		Config{Tracer: tr, IdleTimeout: 2 * time.Second},
		Config{IdleTimeout: 3 * time.Second})
	tb.serveEcho(300, 10_000)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300, 10_000)
	tb.sim.RunUntil(60 * time.Second)
	if *done < 0 {
		t.Fatal("transfer did not complete")
	}
	if !conn.Closed() || conn.CloseReason() != trace.ReasonIdleTimeout {
		t.Fatalf("client close reason = %q (closed=%v), want %q",
			conn.CloseReason(), conn.Closed(), trace.ReasonIdleTimeout)
	}
	if n := countEvents(tr, trace.EventConnClosed, trace.ReasonIdleTimeout); n != 1 {
		t.Fatalf("%d conn_closed events for idle_timeout, want 1", n)
	}
	if len(tb.accepted) != 1 || !tb.accepted[0].Closed() {
		t.Fatal("server conn not reaped by its own idle timer")
	}
	if got := tb.accepted[0].CloseReason(); got != trace.ReasonIdleTimeout {
		t.Fatalf("server close reason = %q, want %q", got, trace.ReasonIdleTimeout)
	}
}

// TestRTOExhaustedMidTransfer: a permanent black hole mid-transfer drives
// the sender through its full RTO backoff chain (hitting the absolute
// delay cap on the way) and ends in a classified rto_exhausted close.
func TestRTOExhaustedMidTransfer(t *testing.T) {
	tr := trace.NewDetailed()
	tb := newTestbed(1, fastLink(),
		Config{IdleTimeout: -1},
		Config{Tracer: tr, IdleTimeout: -1})
	tb.serveEcho(300, 4<<20)
	conn := tb.client.Dial(2)
	fetch(tb, conn, 300, 4<<20)
	tb.sim.Schedule(400*time.Millisecond, func() {
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

// TestRTOBackoffDelayCap (regression): a deep consecutive-RTO shift is
// clamped to transport.MaxRTODelay, with the capped event fired.
func TestRTOBackoffDelayCap(t *testing.T) {
	tr := trace.NewDetailed()
	tb := newTestbed(1, fastLink(), Config{}, Config{Tracer: tr, IdleTimeout: -1})
	tb.serveEcho(300, 8<<20)
	conn := tb.client.Dial(2)
	fetch(tb, conn, 300, 8<<20)
	exercised := false
	tb.sim.Schedule(400*time.Millisecond, func() {
		sc := tb.accepted[0]
		if sc.sb.len() == 0 {
			t.Fatal("no segments in flight mid-transfer")
		}
		sc.tlpFired = true
		sc.rtoCount = 6 // (srtt+4*rttvar) << 6 far exceeds the cap
		sc.armRTO()
		exercised = true
		sc.Close() // stop the transfer; only the capped arm matters
	})
	tb.sim.RunUntil(time.Second)
	if !exercised {
		t.Fatal("cap branch never exercised")
	}
	if n := countEvents(tr, trace.EventRTOBackoffCapped, ""); n != 1 {
		t.Fatalf("%d rto_backoff_capped events, want 1", n)
	}
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
	tb.serveEcho(300, 4<<20)
	conn := tb.client.Dial(2)
	fetch(tb, conn, 300, 4<<20)
	tb.sim.Schedule(400*time.Millisecond, func() { // mid-transfer: black-hole both ways
		tb.fwd.SetLoss(1)
		tb.rev.SetLoss(1)
	})
	tb.sim.RunUntil(5 * time.Minute)
	sc := tb.accepted[0]
	if n, rtos := retransmits(srv.Tracer), srv.Tracer.Summary(0).RTOs; n == 0 || rtos == 0 || sc.CloseReason() != trace.ReasonRTOExhausted {
		t.Fatalf("server conn saw rexmits=%d rtos=%d close=%q; want loss, RTOs and rto_exhausted", n, rtos, sc.CloseReason())
	}
	if conn.CloseReason() != trace.ReasonIdleTimeout {
		t.Fatalf("client conn close reason %q, want idle_timeout", conn.CloseReason())
	}
	tb.sim.Reset(3)
	tb.net.Reset()
	for _, e := range []*Endpoint{tb.client, tb.server} {
		e.Reset(Config{})
		fresh := NewEndpoint(netem.NewNetwork(sim.New(1)), 9, Config{}).takeConn()
		if diff := recycletest.Diff(e.takeConn(), fresh, "ssFree"); len(diff) > 0 {
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
