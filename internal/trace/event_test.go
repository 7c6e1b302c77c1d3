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
	r.SpuriousLoss(5, 2)
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
	r.Add("x", 5)
	if r.Detailed() {
		t.Error("nil recorder must not report detailed")
	}
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
	if r.Detailed() {
		t.Error("New() recorder must not report detailed")
	}
	// The four folded methods count without logging or allocating.
	if s := r.Summary(time.Second); s.PacketsAcked != 1 || s.PacketsLost != 1 ||
		s.SpuriousLosses != 1 || s.RTTSamples != 1 || s.SpuriousRate != 1 {
		t.Errorf("undetailed summary lost the folded counts: %+v", s)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.PacketAcked(3, 1, 100)
		r.PacketLost(4, 2, 100)
		r.SpuriousLoss(5, 2)
		r.RTTSample(8, 10, 10, 10, 1)
	}); allocs != 0 {
		t.Errorf("folded methods: %.0f allocs per run, want 0", allocs)
	}
	if len(r.Events) != 0 {
		t.Errorf("undetailed recorder logged %d events while folding", len(r.Events))
	}
}

// TestFoldEqualsLog drives seeded random sequences of every event method
// into a detailed and an undetailed recorder: the undetailed Summary's
// folded counts and SpuriousRate must equal what Summarize reads off the
// detailed recorder's log, and Reset must zero both.
func TestFoldEqualsLog(t *testing.T) {
	emitters := []func(r *Recorder, t time.Duration, n int){
		func(r *Recorder, t time.Duration, n int) { r.PacketSent(t, uint64(n), n, 1) },
		func(r *Recorder, t time.Duration, n int) { r.PacketReceived(t, uint64(n), n, 0) },
		func(r *Recorder, t time.Duration, n int) { r.PacketAcked(t, uint64(n), n) },
		func(r *Recorder, t time.Duration, n int) { r.PacketLost(t, uint64(n), n) },
		func(r *Recorder, t time.Duration, n int) { r.SpuriousLoss(t, uint64(n)) },
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
		func(r *Recorder, t time.Duration, _ int) { r.ConnClosed(t, ReasonIdleTimeout) },
		func(r *Recorder, t time.Duration, _ int) { r.RTOBackoffCapped(t) },
		func(r *Recorder, t time.Duration, _ int) { r.Transition(t, "SlowStart", "Recovery") },
		func(r *Recorder, t time.Duration, n int) { r.SampleCwnd(t, float64(n)) },
	}
	folded := func(s Summary) [5]float64 {
		return [5]float64{float64(s.PacketsAcked), float64(s.PacketsLost),
			float64(s.SpuriousLosses), float64(s.RTTSamples), s.SpuriousRate}
	}
	detailed, plain := NewDetailed(), New()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400)
		now := time.Duration(0)
		for i := 0; i < n; i++ {
			now += time.Duration(rng.Intn(1000))
			emit := emitters[rng.Intn(len(emitters))]
			size := rng.Intn(1500)
			emit(detailed, now, size)
			emit(plain, now, size)
		}
		end := now + time.Millisecond
		want := folded(Summarize(detailed.Events, end))
		if got := folded(plain.Summary(end)); got != want {
			t.Fatalf("seed %d (%d events): fold %v, log %v", seed, n, got, want)
		}
		if got := folded(detailed.Summary(end)); got != want {
			t.Fatalf("seed %d: detailed Summary %v, Summarize %v", seed, got, want)
		}
		detailed.Reset()
		plain.Reset()
		for name, r := range map[string]*Recorder{"detailed": detailed, "undetailed": plain} {
			if got := folded(r.Summary(end)); got != [5]float64{} {
				t.Fatalf("seed %d: %s summary after Reset = %v, want zeros", seed, name, got)
			}
		}
	}
}

func TestDetailedRecorderLogsEvents(t *testing.T) {
	r := NewDetailed()
	if !r.Detailed() {
		t.Fatal("NewDetailed must report detailed")
	}
	callAllEventMethods(r)
	r.Transition(17, "a", "b")
	r.SampleCwnd(18, 100)
	if len(r.Events) != 18 {
		t.Fatalf("logged %d events, want 18", len(r.Events))
	}
	// Events arrive in call order with the types we emitted.
	want := []EventType{
		EventPacketSent, EventPacketReceived, EventPacketAcked, EventPacketLost,
		EventSpuriousLoss, EventTLPFired, EventRTOFired, EventRTTSample,
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

func TestAdd(t *testing.T) {
	r := New()
	r.Add("bytes", 100)
	r.Add("bytes", 50)
	r.Count("bytes")
	if got := r.Counter("bytes"); got != 151 {
		t.Errorf("Counter = %d, want 151", got)
	}
	var z Recorder
	z.Add("x", 2)
	if z.Counter("x") != 2 {
		t.Error("zero-value recorder Add failed")
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
	r.SpuriousLoss(7*time.Millisecond, 2)
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
