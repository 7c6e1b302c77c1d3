package transport

import (
	"slices"
	"testing"
	"time"

	"quiclab/internal/metrics"
	"quiclab/internal/netem"
	"quiclab/internal/profile"
	"quiclab/internal/sim"
	"quiclab/internal/trace"
)

const ms = time.Millisecond

// stack is the least a protocol stack can be: the base, a processing
// queue of ints, and a record of what its hooks saw.
type stack struct {
	Conn
	rx        ProcQueue[int]
	e         *Endpoint[int, stack]
	delay     time.Duration
	processed []int
	log       []string
}

func newStack(t *testing.T, idle time.Duration, tr *trace.Recorder) (*sim.Simulator, *stack) {
	t.Helper()
	s := sim.New(1)
	e := new(Endpoint[int, stack])
	e.Attach(netem.NewNetwork(s), 1, netem.HandlerFunc(func(*netem.Packet) {}))
	c := &stack{e: e}
	c.Bind(Hooks{
		Teardown:  func() { c.log = append(c.log, "teardown"); e.Remove(0, c) },
		LastWords: func(reason string) { c.log = append(c.log, "last words: "+reason) },
		Classify:  func() profile.State { return profile.StateTransfer },
	})
	c.rx.Bind(&c.Conn, func() time.Duration { return c.delay }, func(p int) { c.processed = append(c.processed, p) })
	c.OnClosed = func(reason string) { c.log = append(c.log, "OnClosed: "+reason) }
	e.Open(&c.Conn, tr, idle)
	e.Conns[0] = c
	return s, c
}

func TestEstimator(t *testing.T) {
	m := metrics.New(0, 0)
	_, c := newStack(t, -1, &trace.Recorder{Metrics: m})
	srttSeries, rttvarSeries := m.Lookup(metrics.SeriesSRTT), m.Lookup(metrics.SeriesRTTVar)

	c.UpdateRTT(1*ms, 100*ms)
	if c.SRTT() != 100*ms || c.RTTVar() != 50*ms {
		t.Fatalf("first sample: srtt %v rttvar %v, want 100ms 50ms", c.SRTT(), c.RTTVar())
	}
	if srttSeries.Len() != 0 || rttvarSeries.Len() != 0 {
		t.Fatalf("first sample recorded %d/%d series points, want none", srttSeries.Len(), rttvarSeries.Len())
	}
	c.UpdateRTT(2*ms, 60*ms)
	wantVar := (3*50*ms + 40*ms) / 4
	wantSRTT := (7*100*ms + 60*ms) / 8
	if c.SRTT() != wantSRTT || c.RTTVar() != wantVar {
		t.Fatalf("second sample: srtt %v rttvar %v, want %v %v", c.SRTT(), c.RTTVar(), wantSRTT, wantVar)
	}
	for _, s := range []*metrics.Series{srttSeries, rttvarSeries} {
		if s.Len() != 1 || s.Points()[0].T != 2*ms {
			t.Fatalf("%s: points %v, want one at 2ms", s.Name(), s.Points())
		}
	}
	if got := srttSeries.Points()[0].V; got != float64(wantSRTT) {
		t.Fatalf("srtt point %v, want %v", got, float64(wantSRTT))
	}
}

func TestRetryLadder(t *testing.T) {
	var r Retry
	var waits []time.Duration
	var total time.Duration
	for {
		w, ok := r.Next()
		if !ok {
			break
		}
		waits = append(waits, w/time.Second)
		total += w
	}
	if want := []time.Duration{1, 2, 4, 8, 8, 8}; !slices.Equal(waits, want) {
		t.Fatalf("waits %v s, want %v", waits, want)
	}
	if total != 31*time.Second || r.Tries() != 1+MaxRetries {
		t.Fatalf("failed %v in after %d attempts, want 31s after the first send and %d retries", total, r.Tries(), MaxRetries)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("an exhausted ladder granted another attempt")
	}
}

func TestRTODelay(t *testing.T) {
	var e Estimator
	if d, capped := e.RTO(100*ms, 0); d != MinRTO || capped {
		t.Fatalf("no sample, initial 100ms: %v capped=%v, want the %v floor", d, capped, MinRTO)
	}
	if pto := e.PTO(100 * ms); pto != 200*ms {
		t.Fatalf("PTO before a sample = %v, want 2 x initial", pto)
	}
	e.UpdateRTT(0, 2*ms)
	if pto := e.PTO(100 * ms); pto != MinPTO {
		t.Fatalf("PTO at srtt 2ms = %v, want the %v floor", pto, MinPTO)
	}
	e = Estimator{}
	e.UpdateRTT(0, 100*ms) // srtt 100ms, rttvar 50ms: base 300ms
	for n, want := range []time.Duration{300 * ms, 600 * ms, 1200 * ms, 2400 * ms, 4800 * ms, 9600 * ms, MaxRTODelay, MaxRTODelay} {
		d, capped := e.RTO(time.Second, n)
		if d != want || capped != (n >= 6) {
			t.Errorf("backoff %d: %v capped=%v, want %v capped=%v", n, d, capped, want, n >= 6)
		}
	}
	// The floor doubles 200, 400, ... 6400 ms and is clamped from the sixth
	// backoff on; the shift stops at 2^6, so no backoff count overflows.
	e = Estimator{}
	for _, n := range []int{0, 5, 6, 50, 1000} {
		d, capped := e.RTO(10*ms, n)
		if want := min(MinRTO<<min(n, 6), MaxRTODelay); d != want || capped != (n >= 6) {
			t.Errorf("floor, backoff %d: %v capped=%v, want %v capped=%v", n, d, capped, want, n >= 6)
		}
	}
	// RTODelay traces the clamp, once per clamped computation.
	tr := trace.NewDetailed()
	_, c := newStack(t, -1, tr)
	c.UpdateRTT(0, 100*ms)
	c.RTODelay(time.Second, 5)
	if n := len(tr.Events); n != 0 {
		t.Fatalf("unclamped delay traced %d events", n)
	}
	if d := c.RTODelay(time.Second, 6); d != MaxRTODelay || len(tr.Events) != 1 || tr.Events[0].Type != trace.EventRTOBackoffCapped {
		t.Fatalf("clamped delay %v: events %+v; want one rto_backoff_capped", d, tr.Events)
	}
}

func TestAbortClassifiesOnce(t *testing.T) {
	tr := trace.NewDetailed()
	s, c := newStack(t, -1, tr)
	s.Schedule(5*ms, func() { c.Abort(trace.ReasonRTOExhausted) })
	s.Run()
	want := []string{"last words: rto_exhausted", "teardown", "OnClosed: rto_exhausted"}
	if !slices.Equal(c.log, want) {
		t.Fatalf("abort ran %q, want %q", c.log, want)
	}
	c.Abort(trace.ReasonIdleTimeout)
	c.Close()
	if !slices.Equal(c.log, want) {
		t.Fatalf("closing a closed connection ran more hooks: %q", c.log)
	}
	if !c.Closed() || c.CloseReason() != trace.ReasonRTOExhausted {
		t.Fatalf("closed=%v reason=%q", c.Closed(), c.CloseReason())
	}
	if len(tr.Events) != 1 || tr.Events[0].Type != trace.EventConnClosed || tr.Events[0].T != 5*ms || tr.Events[0].Reason != trace.ReasonRTOExhausted {
		t.Fatalf("events %+v, want one conn_closed (rto_exhausted) at 5ms", tr.Events)
	}
	if len(c.e.Conns) != 0 || len(c.e.graveyard) != 1 || c.e.Recycled() != nil {
		t.Fatal("a closed record must wait in the graveyard, off the live set and the free list")
	}

	// A plain Close tears down but classifies nothing and fires nothing.
	tr2 := trace.NewDetailed()
	_, c2 := newStack(t, -1, tr2)
	c2.Close()
	if !slices.Equal(c2.log, []string{"teardown"}) || c2.CloseReason() != "" || len(tr2.Events) != 0 {
		t.Fatalf("plain Close: log %q reason %q events %d", c2.log, c2.CloseReason(), len(tr2.Events))
	}
}

func TestIdleAlarm(t *testing.T) {
	s, c := newStack(t, 100*ms, nil)
	c.ArmIdle()
	// Traffic every 60 ms for 300 ms: the alarm fires at 100 ms, finds
	// activity at 60 ms, and re-arms for 160 ms; and so on.
	for at := 60 * ms; at <= 300*ms; at += 60 * ms {
		s.Schedule(at, func() { c.Touch(s.Now()) })
	}
	s.RunUntil(399 * ms)
	if c.Closed() {
		t.Fatalf("closed at %v with activity at 300ms and a 100ms timeout", s.Now())
	}
	s.Run()
	if !c.Closed() || c.CloseReason() != trace.ReasonIdleTimeout || s.Now() != 400*ms {
		t.Fatalf("closed=%v reason=%q at %v, want idle_timeout at 400ms", c.Closed(), c.CloseReason(), s.Now())
	}
	// Disabled: nothing is scheduled at all.
	s2, c2 := newStack(t, -1, nil)
	c2.ArmIdle()
	if s2.Pending() != 0 {
		t.Fatal("a negative idle timeout armed the alarm")
	}
}

func TestOnConnectedQueue(t *testing.T) {
	_, c := newStack(t, -1, nil)
	var got []int
	c.OnConnected(func() { got = append(got, 1) })
	c.OnConnected(func() {
		got = append(got, 2)
		c.OnConnected(func() { got = append(got, 3) }) // already connected: immediate
	})
	if len(got) != 0 {
		t.Fatalf("callbacks %v ran before FireConnected", got)
	}
	c.FireConnected()
	c.FireConnected()
	c.OnConnected(func() { got = append(got, 4) })
	if want := []int{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("callbacks ran %v, want %v", got, want)
	}
}

func TestProcQueue(t *testing.T) {
	s, c := newStack(t, -1, nil)
	c.rx.Receive(1) // free processing: handled on arrival
	if !slices.Equal(c.processed, []int{1}) {
		t.Fatalf("processed %v, want [1] at once", c.processed)
	}
	c.delay = 10 * ms
	for p := 2; p <= 5; p++ {
		c.rx.Receive(p)
	}
	s.Schedule(25*ms, func() { c.rx.Receive(6) })
	s.RunUntil(35 * ms) // one every 10 ms: 2, 3 and 4 are through
	if want := []int{1, 2, 3, 4}; !slices.Equal(c.processed, want) {
		t.Fatalf("at 35ms processed %v, want %v", c.processed, want)
	}
	c.Close()
	c.rx.Receive(7)
	s.Run()
	if want := []int{1, 2, 3, 4}; !slices.Equal(c.processed, want) {
		t.Fatalf("processed %v after close, want %v", c.processed, want)
	}
	if c.rx.busy {
		t.Fatal("queue still busy after close")
	}
}

// TestProcQueueReusesItsStorage: a queue that drains rewinds onto the
// storage it has, so filling it again allocates nothing.
func TestProcQueueReusesItsStorage(t *testing.T) {
	s, c := newStack(t, -1, nil)
	c.delay = ms
	c.processed = make([]int, 0, 64)
	round := func() {
		for p := 0; p < 64; p++ {
			c.rx.Receive(p)
		}
		s.Run()
		if len(c.processed) != 64 || c.processed[63] != 63 {
			t.Fatalf("processed %v, want 0..63", c.processed)
		}
		c.processed = c.processed[:0]
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("%v allocs to drain and refill a busy queue of 64, want 0", n)
	}
}

func TestEndpointRecycle(t *testing.T) {
	_, c := newStack(t, -1, nil)
	e := c.e
	live := &stack{e: e}
	e.Conns[1] = live
	e.Listen(func(*stack) {})
	c.Close()
	var retired []*stack
	e.Reset(func(c *stack) { retired = append(retired, c) })
	if len(retired) != 2 || len(e.Conns) != 0 || len(e.graveyard) != 0 || e.Listening() {
		t.Fatalf("Reset retired %d records, left %d live, %d buried, listening=%v", len(retired), len(e.Conns), len(e.graveyard), e.Listening())
	}
	a, b := e.Recycled(), e.Recycled()
	if a == nil || b == nil || a == b || e.Recycled() != nil {
		t.Fatal("Reset must put exactly the two retired records on the free list")
	}
}

// TestPerPacketPathsDoNotAllocate: what a stack calls per packet or per
// ack goes through the base without a closure or interface allocation.
func TestPerPacketPathsDoNotAllocate(t *testing.T) {
	s, c := newStack(t, time.Second, nil)
	c.processed = make([]int, 0, 1<<16)
	if n := testing.AllocsPerRun(1000, func() {
		c.rx.Receive(1)
		c.Touch(s.Now())
		c.UpdateRTT(s.Now(), 40*ms)
		c.SampleInFlight(1350)
		c.Reclassify()
		c.RTODelay(100*ms, 2)
		c.ArmIdle()
		c.processed = c.processed[:0]
	}); n != 0 {
		t.Fatalf("%v allocs per packet, want 0", n)
	}
}

// BenchmarkProcQueueReceive: the per-packet cost of the shared processing
// queue with processing free — two calls through bound callbacks.
func BenchmarkProcQueueReceive(b *testing.B) {
	e := new(Endpoint[int, stack])
	e.Attach(netem.NewNetwork(sim.New(1)), 1, netem.HandlerFunc(func(*netem.Packet) {}))
	c := &stack{}
	n := 0
	c.rx.Bind(&c.Conn, func() time.Duration { return 0 }, func(p int) { n += p })
	e.Open(&c.Conn, nil, -1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.rx.Receive(1)
	}
}
