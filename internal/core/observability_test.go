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

// TestSummaryMatchesCounters pins the server summary's declared losses to
// the declared_lost counter, from the event log (TraceEvents) and from
// the fold an undetailed recorder keeps alike.
func TestSummaryMatchesCounters(t *testing.T) {
	for _, detailed := range []bool{true, false} {
		for _, proto := range []Proto{QUIC, TCP} {
			sc := lossyScenario()
			sc.TraceEvents = detailed
			res := sc.RunPLT(proto, 5)
			s := res.ServerSummary()
			if s.PacketsLost == 0 {
				t.Fatalf("%s detailed=%v: lossy run declared no losses", proto, detailed)
			}
			if got, want := s.PacketsLost, res.ServerTrace.Counter("declared_lost"); got != want {
				t.Errorf("%s detailed=%v: summary lost=%d, counter declared_lost=%d", proto, detailed, got, want)
			}
			if s.PacketsAcked == 0 || s.RTTSamples == 0 || (detailed && s.PacketsSent == 0) {
				t.Errorf("%s detailed=%v: summary missing sent/acked/rtt: %+v", proto, detailed, s)
			}
		}
	}
}

// TestSpuriousLossMatchesCounter pins the summary's spurious losses to
// each stack's own counter (QUIC false_loss, TCP spurious_rexmit), with
// and without the event log.
func TestSpuriousLossMatchesCounter(t *testing.T) {
	counters := map[Proto]string{QUIC: "false_loss", TCP: "spurious_rexmit"}
	for _, detailed := range []bool{true, false} {
		for _, proto := range []Proto{QUIC, TCP} {
			sc := reorderScenario()
			sc.TraceEvents = detailed
			res := sc.RunPLT(proto, 2)
			s := res.ServerSummary()
			if want := res.ServerTrace.Counter(counters[proto]); s.SpuriousLosses != want {
				t.Errorf("%s detailed=%v: summary spurious=%d, counter %s=%d",
					proto, detailed, s.SpuriousLosses, counters[proto], want)
			}
			if proto == QUIC && s.SpuriousLosses == 0 {
				t.Errorf("detailed=%v: no spurious losses triggered at this seed (scenario tuning)", detailed)
			}
		}
	}
}

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
	want := res.ServerSummary()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summary changed across JSONL round trip:\ngot  %+v\nwant %+v", got, want)
	}
}
