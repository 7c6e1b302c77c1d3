package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"quiclab/internal/device"
	"quiclab/internal/trace"
	"quiclab/internal/web"
)

// lossyScenario is a small transfer with enough loss to exercise the
// full event taxonomy quickly.
func lossyScenario() Scenario {
	return Scenario{
		Seed:        1,
		RateMbps:    20,
		LossPct:     1,
		Page:        web.Page{NumObjects: 1, ObjectSize: 300 << 10},
		Device:      device.Desktop,
		TraceEvents: true,
	}
}

// reorderScenario uses heavy jitter so QUIC's NACK threshold misfires
// (spurious losses) — the Fig 10 pathology, visible in the event log.
func reorderScenario() Scenario {
	return Scenario{
		Seed:        1,
		RateMbps:    20,
		RTT:         112 * time.Millisecond,
		Jitter:      10 * time.Millisecond,
		Page:        web.Page{NumObjects: 1, ObjectSize: 2 << 20},
		Device:      device.Desktop,
		TraceEvents: true,
	}
}

func TestTraceEventsDisabledByDefault(t *testing.T) {
	sc := lossyScenario()
	sc.TraceEvents = false
	res := sc.RunPLT(QUIC, 1)
	if len(res.ServerTrace.Events) != 0 {
		t.Errorf("untraced run logged %d events", len(res.ServerTrace.Events))
	}
	if res.ClientTrace != nil {
		t.Error("untraced run should not carry a client recorder")
	}
	if len(res.ServerTrace.States) == 0 {
		t.Error("untraced run must still record CC state transitions")
	}
}

func TestQlogDeterminism(t *testing.T) {
	for _, proto := range []Proto{QUIC, TCP} {
		runJSONL := func() []byte {
			res := lossyScenario().RunPLT(proto, 7)
			var buf bytes.Buffer
			if err := res.ServerTrace.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		a, b := runJSONL(), runJSONL()
		if len(a) == 0 {
			t.Fatalf("%s: empty event log", proto)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same-seed runs produced different JSONL (%d vs %d bytes)", proto, len(a), len(b))
		}
	}
}

func TestRequiredEventTypesPresent(t *testing.T) {
	required := []trace.EventType{
		trace.EventPacketSent,
		trace.EventPacketReceived,
		trace.EventPacketAcked,
		trace.EventPacketLost,
		trace.EventRTTSample,
		trace.EventStateTransition,
	}
	for _, proto := range []Proto{QUIC, TCP} {
		res := lossyScenario().RunPLT(proto, 3)
		if !res.Completed {
			t.Fatalf("%s: run did not complete", proto)
		}
		seen := map[trace.EventType]bool{}
		for _, e := range res.ServerTrace.Events {
			seen[e.Type] = true
		}
		for _, et := range required {
			if !seen[et] {
				t.Errorf("%s: no %v events in server log", proto, et)
			}
		}
		// Client side records the mirror view (receives, acks of its
		// requests); it must at least see traffic.
		if res.ClientTrace == nil || len(res.ClientTrace.Events) == 0 {
			t.Errorf("%s: client event log empty", proto)
		}
	}
}

// TestSummaryMatchesCounters pins the server summary's declared losses,
// RTOs and TLPs to the declared_lost, cc_rto and cc_tlp counters, at 1 %
// loss and at 20 %, where both stacks' probe alarms fire. A run without
// the event log (TraceEvents off) reports every count and the time in
// each state the logged run does.
func TestSummaryMatchesCounters(t *testing.T) {
	for _, c := range []struct {
		lossPct float64
		seed    int64
	}{{1, 5}, {20, 4}} {
		for _, proto := range []Proto{QUIC, TCP} {
			var summaries [2]trace.Summary
			for i, detailed := range []bool{true, false} {
				sc := lossyScenario()
				sc.LossPct, sc.TraceEvents = c.lossPct, detailed
				res := sc.RunPLT(proto, c.seed)
				s := res.ServerSummary()
				tr := res.ServerTrace
				got := [...]int{s.PacketsLost, s.RTOs, s.TLPs}
				if want := [...]int{tr.Counter("declared_lost"), tr.Counter("cc_rto"), tr.Counter("cc_tlp")}; got != want {
					t.Errorf("%v%% %s detailed=%v: summary lost, rtos, tlps = %v, counters declared_lost, cc_rto, cc_tlp = %v",
						c.lossPct, proto, detailed, got, want)
				}
				if got[0] == 0 || (c.lossPct > 1 && (got[1] == 0 || got[2] == 0)) {
					t.Errorf("%v%% %s detailed=%v: lost, rtos, tlps = %v; the scenario needs each", c.lossPct, proto, detailed, got)
				}
				if s.PacketsAcked == 0 || s.RTTSamples == 0 || s.PacketsSent == 0 {
					t.Errorf("%v%% %s detailed=%v: summary missing sent/acked/rtt: %+v", c.lossPct, proto, detailed, s)
				}
				summaries[i] = s
			}
			logged, folded := summaries[0], summaries[1]
			logged.RTTMin, logged.RTTP50, logged.RTTP95, logged.RTTP99, logged.RTTMax = 0, 0, 0, 0, 0
			if !reflect.DeepEqual(logged, folded) {
				t.Errorf("%v%% %s: counts with the log %+v, without %+v", c.lossPct, proto, logged, folded)
			}
		}
	}
}

// TestSpuriousLossMatchesCounter pins the summary's spurious losses to
// each stack's own counter (QUIC false_loss, TCP spurious_rexmit), with
// and without the event log; the other stack's counter reads 0, so each
// name counts one stack's events as it did when the stacks kept them
// apart.
func TestSpuriousLossMatchesCounter(t *testing.T) {
	counters := map[Proto][2]string{QUIC: {"false_loss", "spurious_rexmit"}, TCP: {"spurious_rexmit", "false_loss"}}
	for _, detailed := range []bool{true, false} {
		for _, proto := range []Proto{QUIC, TCP} {
			sc := reorderScenario()
			sc.TraceEvents = detailed
			res := sc.RunPLT(proto, 2)
			s := res.ServerSummary()
			own, other := counters[proto][0], counters[proto][1]
			if want := res.ServerTrace.Counter(own); s.SpuriousLosses != want {
				t.Errorf("%s detailed=%v: summary spurious=%d, counter %s=%d",
					proto, detailed, s.SpuriousLosses, own, want)
			}
			if n := res.ServerTrace.Counter(other); n != 0 {
				t.Errorf("%s detailed=%v: counter %s=%d, want 0", proto, detailed, other, n)
			}
			if proto == QUIC && s.SpuriousLosses == 0 {
				t.Errorf("detailed=%v: no spurious losses triggered at this seed (scenario tuning)", detailed)
			}
		}
	}
}

// TestJSONLRoundTripPreservesSummary: the log read back from JSONL
// summarises as the recorder did — its counts, rates and RTT percentiles
// from the events, its time in state from the state_transition events,
// replayed as a recorder's transitions.
func TestJSONLRoundTripPreservesSummary(t *testing.T) {
	res := lossyScenario().RunPLT(QUIC, 9)
	var buf bytes.Buffer
	if err := res.ServerTrace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := trace.Summarize(events, res.EndTime)
	replay := trace.New()
	for _, e := range events {
		if e.Type == trace.EventStateTransition {
			replay.Transition(e.T, e.From, e.To)
		}
	}
	got.TimeInState = replay.Summary(res.EndTime).TimeInState
	want := res.ServerSummary()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summary changed across JSONL round trip:\ngot  %+v\nwant %+v", got, want)
	}
}
