package trace

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenEvents covers every event type with every field class populated.
func goldenEvents() []Event {
	return []Event{
		{T: 36 * time.Millisecond, Type: EventPacketSent, PN: 3, Size: 1350, StreamID: 1},
		{T: 54012345, Type: EventRTTSample, RTT: 36012345, SRTT: 36010000, MinRTT: 36000000, RTTVar: 900000},
		{T: 60 * time.Millisecond, Type: EventStateTransition, From: "SlowStart", To: "Recovery"},
		{T: 61 * time.Millisecond, Type: EventPacketLost, PN: 7, Size: 1350},
		{T: 70 * time.Millisecond, Type: EventSpuriousLoss, PN: 7},
		{T: 80 * time.Millisecond, Type: EventTLPFired},
		{T: 90 * time.Millisecond, Type: EventRTOFired},
		{T: 95 * time.Millisecond, Type: EventFlowBlocked, StreamID: 5},
		{T: 96 * time.Millisecond, Type: EventFlowUnblocked, StreamID: 5},
		{T: 97 * time.Millisecond, Type: EventPacingRelease, PN: 9},
		{T: 98 * time.Millisecond, Type: EventRecoveryEnter},
		{T: 99 * time.Millisecond, Type: EventRecoveryExit},
		{T: 100 * time.Millisecond, Type: EventCwndSample, Cwnd: 14480},
		{T: 101 * time.Millisecond, Type: EventPacketReceived, PN: 11, Size: 500},
		{T: 102 * time.Millisecond, Type: EventPacketAcked, PN: 3, Size: 1350},
		{T: 103 * time.Millisecond, Type: EventFaultInjected, Fault: "outage dur=2s"},
		{T: 104 * time.Millisecond, Type: EventRTOBackoffCapped},
		{T: 105 * time.Millisecond, Type: EventConnClosed, Reason: ReasonRTOExhausted},
	}
}

func TestJSONLGolden(t *testing.T) {
	events := goldenEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "events.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("serialized JSONL differs from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// And the golden file parses back to the original events.
	got, err := ReadJSONL(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, events)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"t":1,"ev":"not_a_thing"}`)); err == nil {
		t.Error("unknown event name should fail")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"t":1,`)); err == nil {
		t.Error("malformed JSON should fail")
	}
	// Blank lines are tolerated.
	events, err := ReadJSONL(strings.NewReader("\n{\"t\":1,\"ev\":\"tlp_fired\"}\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != EventTLPFired {
		t.Errorf("events = %+v", events)
	}
}

func TestEventTypeNames(t *testing.T) {
	for et := EventType(0); et < numEventTypes; et++ {
		name := et.String()
		if name == "" || strings.HasPrefix(name, "unknown_") {
			t.Errorf("event type %d has no name", et)
		}
		back, ok := EventTypeByName(name)
		if !ok || back != et {
			t.Errorf("EventTypeByName(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := EventTypeByName("bogus"); ok {
		t.Error("bogus name should not resolve")
	}
}

// TestJSONLFullTaxonomyRoundTrip pins the entire event taxonomy through
// the wire format: one event of every type survives WriteJSONL →
// ReadJSONL unchanged. Adding an event type without a name (or renaming
// one) fails here, not in a downstream consumer.
func TestJSONLFullTaxonomyRoundTrip(t *testing.T) {
	var events []Event
	for et := EventType(0); et < numEventTypes; et++ {
		events = append(events, Event{
			T:    time.Duration(et+1) * time.Millisecond,
			Type: et,
			PN:   uint64(et),
			Size: 100,
		})
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("full-taxonomy round trip mismatch:\ngot  %+v\nwant %+v", got, events)
	}
	// Every line carries a distinct "ev" name (no two types collide).
	seen := map[string]bool{}
	for _, e := range events {
		name := e.Type.String()
		if seen[name] {
			t.Errorf("duplicate event name %q", name)
		}
		seen[name] = true
	}
}

// TestReadJSONLTruncated: a stream cut off mid-line (the crashed-writer
// case) must error rather than silently drop the partial record.
func TestReadJSONLTruncated(t *testing.T) {
	events := []Event{
		{T: time.Millisecond, Type: EventPacketSent, PN: 1, Size: 1350},
		{T: 2 * time.Millisecond, Type: EventPacketAcked, PN: 1, Size: 1350},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// A missing final newline alone is not corruption: the last record
	// is still complete JSON.
	if _, err := ReadJSONL(bytes.NewReader(full[:len(full)-1])); err != nil {
		t.Errorf("newline-less final record rejected: %v", err)
	}
	// Cut inside the last record (drop the trailing newline plus a few
	// bytes of the JSON object).
	for _, cut := range []int{2, 5, 10} {
		trunc := full[:len(full)-cut]
		if _, err := ReadJSONL(bytes.NewReader(trunc)); err == nil {
			t.Errorf("truncated stream (cut %d bytes) parsed cleanly", cut)
		}
	}
	// Truncation at a record boundary is indistinguishable from a short
	// log: it parses, just with fewer events.
	lineEnd := bytes.IndexByte(full, '\n') + 1
	got, err := ReadJSONL(bytes.NewReader(full[:lineEnd]))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Type != EventPacketSent {
		t.Errorf("boundary-truncated stream = %+v, want the first event", got)
	}
}

// callAllEventMethods exercises every per-packet emit method once.
func callAllEventMethods(r *Recorder) {
	r.PacketSent(1, 1, 100, 1)
	r.PacketReceived(2, 2, 100, 0)
	r.PacketAcked(3, 1, 100)
	r.PacketLost(4, 2, 100)
	r.FalseLoss(5, 2)
	r.SpuriousRexmit(5, 2)
	r.TLPFired(6)
	r.RTOFired(7)
	r.RTTSample(8, 10, 10, 10, 1)
	r.FlowBlocked(9, 1)
	r.FlowUnblocked(10, 1)
	r.PacingRelease(11, 3)
	r.RecoveryEnter(12)
	r.RecoveryExit(13)
	r.FaultInjected(14, "rate=1.00Mbps")
	r.ConnClosed(15, ReasonIdleTimeout)
	r.RTOBackoffCapped(16)
}

func TestNilRecorderEventMethodsSafe(t *testing.T) {
	var r *Recorder
	callAllEventMethods(r)
	if err := r.WriteJSONL(os.NewFile(0, "unused")); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
	s := r.Summary(time.Second)
	if s.PacketsSent != 0 {
		t.Errorf("nil summary = %+v", s)
	}
}

func TestUndetailedRecorderSkipsEvents(t *testing.T) {
	r := New()
	callAllEventMethods(r)
	r.Transition(1, "a", "b")
	r.SampleCwnd(2, 100)
	if len(r.Events) != 0 {
		t.Errorf("undetailed recorder logged %d events", len(r.Events))
	}
	if len(r.States) != 1 || len(r.Cwnd) != 1 {
		t.Error("undetailed recorder must still record states and cwnd")
	}
	// Every method folds its count without logging or allocating, and the
	// transitions give the time in state.
	want := Summary{PacketsSent: 1, PacketsReceived: 1, PacketsAcked: 1, PacketsLost: 1, SpuriousLosses: 2,
		TLPs: 1, RTOs: 1, FlowBlocks: 1, PacingReleases: 1, Recoveries: 1, BytesSent: 100, Faults: 1,
		CloseReason: ReasonIdleTimeout, LossRate: 1, SpuriousRate: 2, RTTSamples: 1,
		TimeInState: map[string]time.Duration{"a": 1, "b": time.Second - 1}, End: time.Second}
	if got := foldView(r.Summary(time.Second)); !reflect.DeepEqual(got, want) {
		t.Errorf("undetailed summary lost folded counts:\ngot  %+v\nwant %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { callAllEventMethods(r) }); allocs != 0 {
		t.Errorf("folded methods: %.0f allocs per run, want 0", allocs)
	}
	if len(r.Events) != 0 {
		t.Errorf("undetailed recorder logged %d events while folding", len(r.Events))
	}
}

// emitters drives every event method, Transition and SampleCwnd from a
// time and one number; TestFoldEqualsLog and FuzzFoldEqualsLog pick from
// it.
var emitters = []func(r *Recorder, t time.Duration, n int){
	func(r *Recorder, t time.Duration, n int) { r.PacketSent(t, uint64(n), n, 1) },
	func(r *Recorder, t time.Duration, n int) { r.PacketReceived(t, uint64(n), n, 0) },
	func(r *Recorder, t time.Duration, n int) { r.PacketAcked(t, uint64(n), n) },
	func(r *Recorder, t time.Duration, n int) { r.PacketLost(t, uint64(n), n) },
	func(r *Recorder, t time.Duration, n int) { r.FalseLoss(t, uint64(n)) },
	func(r *Recorder, t time.Duration, n int) { r.SpuriousRexmit(t, uint64(n)) },
	func(r *Recorder, t time.Duration, _ int) { r.TLPFired(t) },
	func(r *Recorder, t time.Duration, _ int) { r.RTOFired(t) },
	func(r *Recorder, t time.Duration, n int) {
		r.RTTSample(t, time.Duration(n), time.Duration(n), 0, 1)
	},
	func(r *Recorder, t time.Duration, n int) { r.FlowBlocked(t, uint32(n)) },
	func(r *Recorder, t time.Duration, n int) { r.FlowUnblocked(t, uint32(n)) },
	func(r *Recorder, t time.Duration, n int) { r.PacingRelease(t, uint64(n)) },
	func(r *Recorder, t time.Duration, _ int) { r.RecoveryEnter(t) },
	func(r *Recorder, t time.Duration, _ int) { r.RecoveryExit(t) },
	func(r *Recorder, t time.Duration, _ int) { r.FaultInjected(t, "loss=1%") },
	func(r *Recorder, t time.Duration, n int) {
		r.ConnClosed(t, [...]string{ReasonIdleTimeout, ReasonRTOExhausted, ReasonPeerClosed}[n%3])
	},
	func(r *Recorder, t time.Duration, _ int) { r.RTOBackoffCapped(t) },
	func(r *Recorder, t time.Duration, _ int) { r.Transition(t, "SlowStart", "Recovery") },
	func(r *Recorder, t time.Duration, n int) { r.SampleCwnd(t, float64(n)) },
}

// counterNames are every name Counter answers to.
var counterNames = [...]string{"declared_lost", "false_loss", "spurious_rexmit", "cc_rto", "cc_tlp", "fault_injected"}

func counters(r *Recorder) (c [len(counterNames)]int) {
	for i, name := range counterNames {
		c[i] = r.Counter(name)
	}
	return c
}

// foldView is the part of a Summary every recorder holds: every count,
// the two rates, the close reason and the time in state (the RTT
// percentiles need the log).
func foldView(s Summary) Summary {
	s.RTTMin, s.RTTP50, s.RTTP95, s.RTTP99, s.RTTMax = 0, 0, 0, 0, 0
	return s
}

// logTimeInState reads the time in each state off a log's
// state_transition events: the state before the first is credited from
// t=0 and the last runs until end.
func logTimeInState(events []Event, end time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration)
	cur, since := "", time.Duration(0)
	for _, e := range events {
		if e.Type != EventStateTransition {
			continue
		}
		if cur == "" {
			cur = e.From
		}
		out[cur] += e.T - since
		cur, since = e.To, e.T
	}
	if cur != "" && end > since {
		out[cur] += end - since
	}
	return out
}

// checkFoldEqualsLog drives one script — (emitter, time step, number)
// triples — into a detailed and an undetailed recorder and compares what
// each folds with what Summarize and logTimeInState read off the log:
// every Summary count, LossRate, SpuriousRate, the close reason and the
// time in state; and Counter of every name,
// the two recorders alike and each name against the log's count of its
// event (false_loss and spurious_rexmit share one). Then Reset must zero
// all of it.
func checkFoldEqualsLog(t *testing.T, detailed, plain *Recorder, script [][3]int) {
	t.Helper()
	now := time.Duration(0)
	for _, op := range script {
		now += time.Duration(op[1])
		emit := emitters[op[0]%len(emitters)]
		emit(detailed, now, op[2])
		emit(plain, now, op[2])
	}
	end := now + time.Millisecond
	log := Summarize(detailed.Events, end)
	log.TimeInState = logTimeInState(detailed.Events, end)
	want := foldView(log)
	if got := foldView(plain.Summary(end)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d events: undetailed summary %+v, log %+v", len(script), got, want)
	}
	if got := detailed.Summary(end); !reflect.DeepEqual(got, log) {
		t.Fatalf("%d events: detailed summary %+v, log %+v", len(script), got, log)
	}
	c := counters(plain)
	if d := counters(detailed); c != d {
		t.Fatalf("%d events: undetailed counters %v, detailed %v", len(script), c, d)
	}
	if got, want := [...]int{c[0], c[1] + c[2], c[3], c[4], c[5]},
		[...]int{log.PacketsLost, log.SpuriousLosses, log.RTOs, log.TLPs, log.Faults}; got != want {
		t.Fatalf("%d events: counters %v, log counts %v", len(script), got, want)
	}
	detailed.Reset()
	plain.Reset()
	for name, r := range map[string]*Recorder{"detailed": detailed, "undetailed": plain} {
		if got := foldView(r.Summary(end)); !reflect.DeepEqual(got, foldView(New().Summary(end))) || counters(r) != [len(counterNames)]int{} {
			t.Fatalf("%s recorder after Reset: summary %+v, counters %v", name, got, counters(r))
		}
	}
}

// TestFoldEqualsLog runs checkFoldEqualsLog over seeded random scripts.
func TestFoldEqualsLog(t *testing.T) {
	detailed, plain := NewDetailed(), New()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([][3]int, rng.Intn(400))
		for i := range script {
			script[i] = [3]int{rng.Intn(len(emitters)), rng.Intn(1000), rng.Intn(1500)}
		}
		checkFoldEqualsLog(t, detailed, plain, script)
	}
}

// FuzzFoldEqualsLog runs checkFoldEqualsLog over scripts the fuzzer
// writes (`make chaos` runs it for a bounded time): each three bytes are
// one step's emitter, time step and number.
func FuzzFoldEqualsLog(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, b []byte) {
		script := make([][3]int, len(b)/3)
		for i := range script {
			script[i] = [3]int{int(b[3*i]), int(b[3*i+1]), int(b[3*i+2])}
		}
		checkFoldEqualsLog(t, NewDetailed(), New(), script)
	})
}

func TestDetailedRecorderLogsEvents(t *testing.T) {
	r := NewDetailed()
	callAllEventMethods(r)
	r.Transition(17, "a", "b")
	r.SampleCwnd(18, 100)
	if len(r.Events) != 19 {
		t.Fatalf("logged %d events, want 19", len(r.Events))
	}
	// Events arrive in call order with the types we emitted.
	want := []EventType{
		EventPacketSent, EventPacketReceived, EventPacketAcked, EventPacketLost,
		EventSpuriousLoss, EventSpuriousLoss, EventTLPFired, EventRTOFired, EventRTTSample,
		EventFlowBlocked, EventFlowUnblocked, EventPacingRelease,
		EventRecoveryEnter, EventRecoveryExit, EventFaultInjected,
		EventConnClosed, EventRTOBackoffCapped, EventStateTransition, EventCwndSample,
	}
	for i, w := range want {
		if r.Events[i].Type != w {
			t.Errorf("event %d = %v, want %v", i, r.Events[i].Type, w)
		}
	}
}

func TestNoAllocsWhenDisabled(t *testing.T) {
	var nilRec *Recorder
	undetailed := New()
	for name, r := range map[string]*Recorder{"nil": nilRec, "undetailed": undetailed} {
		r := r
		if allocs := testing.AllocsPerRun(100, func() {
			callAllEventMethods(r)
		}); allocs != 0 {
			t.Errorf("%s recorder: %.0f allocs per run, want 0", name, allocs)
		}
	}
}

func TestSummarize(t *testing.T) {
	r := NewDetailed()
	r.Transition(0, "Init", "SlowStart")
	r.PacketSent(1*time.Millisecond, 1, 1000, 1)
	r.PacketSent(2*time.Millisecond, 2, 1000, 1)
	r.PacketSent(3*time.Millisecond, 3, 1000, 1)
	r.PacketReceived(4*time.Millisecond, 1, 40, 0)
	r.RTTSample(4*time.Millisecond, 10*time.Millisecond, 10*time.Millisecond, 10*time.Millisecond, time.Millisecond)
	r.PacketAcked(4*time.Millisecond, 1, 1000)
	r.RecoveryEnter(5 * time.Millisecond)
	r.Transition(5*time.Millisecond, "SlowStart", "Recovery")
	r.PacketLost(5*time.Millisecond, 2, 1000)
	r.FalseLoss(7*time.Millisecond, 2)
	r.TLPFired(8 * time.Millisecond)
	r.RTOFired(9 * time.Millisecond)
	r.FlowBlocked(10*time.Millisecond, 1)
	r.PacingRelease(11*time.Millisecond, 3)

	s := r.Summary(20 * time.Millisecond)
	if s.PacketsSent != 3 || s.PacketsReceived != 1 || s.PacketsAcked != 1 || s.PacketsLost != 1 {
		t.Errorf("packet counts: %+v", s)
	}
	if s.BytesSent != 3000 {
		t.Errorf("BytesSent = %d", s.BytesSent)
	}
	if s.SpuriousLosses != 1 || s.TLPs != 1 || s.RTOs != 1 || s.FlowBlocks != 1 || s.PacingReleases != 1 || s.Recoveries != 1 {
		t.Errorf("alarm counts: %+v", s)
	}
	if got := s.LossRate; got < 0.33 || got > 0.34 {
		t.Errorf("LossRate = %v", got)
	}
	if s.SpuriousRate != 1 {
		t.Errorf("SpuriousRate = %v", s.SpuriousRate)
	}
	if s.RTTSamples != 1 || s.RTTMin != 10*time.Millisecond || s.RTTP50 != 10*time.Millisecond {
		t.Errorf("rtt: %+v", s)
	}
	if s.TimeInState["SlowStart"] != 5*time.Millisecond {
		t.Errorf("SlowStart residency = %v", s.TimeInState["SlowStart"])
	}
	if s.TimeInState["Recovery"] != 15*time.Millisecond {
		t.Errorf("Recovery residency = %v", s.TimeInState["Recovery"])
	}
	top, share := s.TopState()
	if top != "Recovery" || share < 0.74 || share > 0.76 {
		t.Errorf("TopState = %q, %v", top, share)
	}
	if out := s.String(); !strings.Contains(out, "sent=3") || !strings.Contains(out, "rtt:") {
		t.Errorf("String() = %q", out)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    int
		want time.Duration
	}{{50, 5}, {95, 10}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func BenchmarkEmitDetailed(b *testing.B) {
	r := NewDetailed()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PacketSent(time.Duration(i), uint64(i), 1350, 1)
		if len(r.Events) > 1<<16 {
			r.Events = r.Events[:0]
		}
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	for name, r := range map[string]*Recorder{"nil": nil, "undetailed": New()} {
		r := r
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.PacketSent(time.Duration(i), uint64(i), 1350, 1)
			}
		})
	}
}
