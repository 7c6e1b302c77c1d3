package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// referenceJSON is the encoder AppendJSON replaced: the event copied into
// the tagged struct and marshalled by encoding/json's reflection. It stays
// here as the reference the hand-written encoder is compared against.
func referenceJSON(e Event) ([]byte, error) {
	return json.Marshal(eventJSON{
		T:        int64(e.T),
		Ev:       e.Type.String(),
		PN:       e.PN,
		Size:     e.Size,
		StreamID: e.StreamID,
		RTT:      int64(e.RTT),
		SRTT:     int64(e.SRTT),
		MinRTT:   int64(e.MinRTT),
		RTTVar:   int64(e.RTTVar),
		From:     e.From,
		To:       e.To,
		Cwnd:     e.Cwnd,
		Fault:    e.Fault,
		Reason:   e.Reason,
	})
}

// Strings covering every class encoding/json treats differently: copied,
// quote/backslash escapes, short control escapes, \u00XX control escapes,
// HTML escapes, DEL (copied), multi-byte UTF-8 (copied), U+2028/2029
// (escaped) and invalid UTF-8 (replaced).
var diffStrings = []string{
	"", "SlowStart", "ApplicationLimited", "outage dur=2s", "rate=1.00Mbps",
	"delay=1.5µs", "a<b>&c", `say "hi"`, `back\slash`, "tab\there", "nl\nhere",
	"\r\b\f", "\x00\x01\x1f", "\x7f", "sep\u2028and\u2029", "bad\xffutf8",
	"\xc3", "日本語", "trailing\\",
}

// Floats on both sides of every boundary of encoding/json's float format.
var diffCwnds = []float64{
	0, math.Copysign(0, -1), 1, 14480, 14480.123456789, 1e21, 9.99e20,
	1e-6, 9.9e-7, 1e-7, 1.5e-10, 5e-324, math.MaxFloat64, 1e100, 1.234e-100,
	-14480, -1e21, -9.99e20, -1e-6, -9.9e-7, -5e-324, -math.MaxFloat64,
	1 << 53, 0.1, 100000000000000000000,
}

// randomEvent draws an event whose every field is zero (and so omitted)
// about a third of the time.
func randomEvent(rng *rand.Rand) Event {
	pick := func() bool { return rng.Intn(3) != 0 }
	str := func() string {
		if !pick() {
			return ""
		}
		return diffStrings[rng.Intn(len(diffStrings))]
	}
	dur := func() time.Duration {
		if !pick() {
			return 0
		}
		return time.Duration(rng.Uint64()) // negative half the time
	}
	e := Event{
		T:      dur(),
		Type:   EventType(rng.Intn(int(numEventTypes) + 1)), // one past the taxonomy: unknown_N
		RTT:    dur(),
		SRTT:   dur(),
		MinRTT: dur(),
		RTTVar: dur(),
		From:   str(),
		To:     str(),
		Fault:  str(),
		Reason: str(),
	}
	if pick() {
		e.PN = rng.Uint64() >> uint(rng.Intn(64))
	}
	if pick() {
		e.Size = int(rng.Uint64())
	}
	if pick() {
		e.StreamID = rng.Uint32()
	}
	switch rng.Intn(3) {
	case 1:
		e.Cwnd = diffCwnds[rng.Intn(len(diffCwnds))]
	case 2:
		for e.Cwnd = math.NaN(); math.IsNaN(e.Cwnd) || math.IsInf(e.Cwnd, 0); {
			e.Cwnd = math.Float64frombits(rng.Uint64())
		}
	}
	return e
}

// checkAgainstReference fails unless AppendJSON (at a non-empty offset)
// and json.Marshal(event) both write what the reference writes for e; it
// returns the line.
func checkAgainstReference(t testing.TB, e Event) []byte {
	t.Helper()
	want, err := referenceJSON(e)
	if err != nil {
		t.Fatalf("reference failed on %+v: %v", e, err)
	}
	got, err := e.AppendJSON([]byte("x"))
	if err != nil {
		t.Fatalf("AppendJSON failed on %+v: %v", e, err)
	}
	if got[0] != 'x' || !bytes.Equal(got[1:], want) {
		t.Fatalf("encoders disagree on %+v:\n got %s\nwant %s", e, got[1:], want)
	}
	viaMarshal, err := json.Marshal(e)
	if err != nil || !bytes.Equal(viaMarshal, want) {
		t.Fatalf("json.Marshal(event) = %s, %v; want %s", viaMarshal, err, want)
	}
	return want
}

// TestAppendJSONMatchesEncodingJSON is the byte-identity contract of the
// hand-written encoder: on random events it writes exactly what
// encoding/json wrote for the same fields.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	check := func(e Event) { t.Helper(); checkAgainstReference(t, e) }
	// Every table entry in every string field and in cwnd, then the mix.
	for _, s := range diffStrings {
		check(Event{T: 1, Type: EventStateTransition, From: s, To: s, Fault: s, Reason: s})
	}
	for _, f := range diffCwnds {
		check(Event{T: 1, Type: EventCwndSample, Cwnd: f})
	}
	check(Event{Type: numEventTypes})
	check(Event{Type: 255})
	n := 120_000
	if testing.Short() {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < n; i++ {
		check(randomEvent(rng))
	}
}

// FuzzEventJSONRoundTrip: whatever the fields, the encoder agrees with the
// encoding/json reference; and for an event the format can carry (a type
// in the taxonomy, valid UTF-8) the line decodes back to the same event.
func FuzzEventJSONRoundTrip(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "events.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	seeds, err := ReadJSONL(bytes.NewReader(golden))
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range seeds {
		f.Add(int64(e.T), uint8(e.Type), e.PN, int64(e.Size), e.StreamID, int64(e.RTT), int64(e.SRTT),
			int64(e.MinRTT), int64(e.RTTVar), e.From, e.To, e.Cwnd, e.Fault, e.Reason)
	}
	f.Add(int64(-1), uint8(numEventTypes), uint64(math.MaxUint64), int64(math.MinInt64), uint32(math.MaxUint32),
		int64(1), int64(2), int64(3), int64(4), "a<b>&c", "delay=1.5µs", 9.9e-7, "\xff\u2028", `"\`)
	f.Fuzz(func(t *testing.T, ts int64, typ uint8, pn uint64, size int64, stream uint32,
		rtt, srtt, minRTT, rttvar int64, from, to string, cwnd float64, fault, reason string) {
		if math.IsNaN(cwnd) || math.IsInf(cwnd, 0) {
			return
		}
		e := Event{T: time.Duration(ts), Type: EventType(typ), PN: pn, Size: int(size), StreamID: stream,
			RTT: time.Duration(rtt), SRTT: time.Duration(srtt), MinRTT: time.Duration(minRTT),
			RTTVar: time.Duration(rttvar), From: from, To: to, Cwnd: cwnd, Fault: fault, Reason: reason}
		got := checkAgainstReference(t, e)
		if e.Type >= numEventTypes {
			return
		}
		for _, s := range []string{from, to, fault, reason} {
			if !utf8.ValidString(s) {
				return // decodes as U+FFFD, by design of encoding/json
			}
		}
		var back Event
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("UnmarshalJSON(%s): %v", got, err)
		}
		if back != e {
			t.Fatalf("round trip of %s:\n got %+v\nwant %+v", got, back, e)
		}
	})
}

// TestWriteJSONLRejectsNonFiniteCwnd: NaN and ±Inf have no JSON form. As
// with encoding/json the write fails, and nothing of the offending event
// reaches the writer.
func TestWriteJSONLRejectsNonFiniteCwnd(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		events := []Event{
			{T: 1, Type: EventCwndSample, Cwnd: 14480},
			{T: 2, Type: EventCwndSample, Cwnd: bad},
			{T: 3, Type: EventCwndSample, Cwnd: 14480},
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err == nil {
			t.Errorf("WriteJSONL with cwnd %v returned no error", bad)
		}
		out := buf.String()
		if out != "" && !strings.HasSuffix(out, "\n") {
			t.Errorf("cwnd %v: output ends in a partial line: %q", bad, out)
		}
		if strings.Contains(out, `"t":2`) || strings.Contains(out, `"t":3`) {
			t.Errorf("cwnd %v: output carries the bad event or one after it: %q", bad, out)
		}
		if _, err := ReadJSONL(strings.NewReader(out)); err != nil {
			t.Errorf("cwnd %v: what was written does not parse: %v", bad, err)
		}
		prefix := []byte("kept")
		if got, err := events[1].AppendJSON(prefix); err == nil || string(got) != "kept" {
			t.Errorf("AppendJSON with cwnd %v = %q, %v; want the prefix alone and an error", bad, got, err)
		}
		if _, err := json.Marshal(events[1]); err == nil {
			t.Errorf("json.Marshal of an event with cwnd %v returned no error", bad)
		}
	}
}

// mixedEvents is a log in the shape a transfer produces: mostly packet
// events, an RTT and a cwnd sample per ack, an occasional transition.
func mixedEvents(n int) []Event {
	events := make([]Event, 0, n)
	for i := 0; len(events) < n; i++ {
		t := time.Duration(i) * 120 * time.Microsecond
		events = append(events,
			Event{T: t, Type: EventPacketSent, PN: uint64(i), Size: 1350, StreamID: 5},
			Event{T: t, Type: EventPacketReceived, PN: uint64(i / 2), Size: 40},
			Event{T: t, Type: EventRTTSample, RTT: 36012345, SRTT: 36010000, MinRTT: 36000000, RTTVar: 900000},
			Event{T: t, Type: EventPacketAcked, PN: uint64(i), Size: 1350},
			Event{T: t, Type: EventCwndSample, Cwnd: 14480 + float64(i)*1350.5},
			Event{T: t, Type: EventPacingRelease, PN: uint64(i)},
		)
		if i%64 == 0 {
			events = append(events, Event{T: t, Type: EventStateTransition, From: "SlowStart", To: "CongestionAvoidance"})
		}
	}
	return events[:n]
}

// TestWriteJSONLAllocsO1: the writer allocates its bufio.Writer and one
// line buffer, whatever the number of events.
func TestWriteJSONLAllocsO1(t *testing.T) {
	events := mixedEvents(4096)
	allocs := testing.AllocsPerRun(10, func() {
		if err := WriteJSONL(io.Discard, events); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("WriteJSONL of %d events allocated %.0f times, want O(1)", len(events), allocs)
	}
}

// TestEventLogGrowsByDoubling: filling a fresh detailed recorder allocates
// at most twice the final log, and a Reset recorder nothing at all.
func TestEventLogGrowsByDoubling(t *testing.T) {
	const n = 5000
	fill := func(r *Recorder) {
		for i := 0; i < n; i++ {
			r.PacketSent(time.Duration(i), uint64(i), 1350, 1)
		}
	}
	r := NewDetailed()
	grows, lastCap := 0, 0
	for i := 0; i < n; i++ {
		r.PacketSent(time.Duration(i), uint64(i), 1350, 1)
		if c := cap(r.Events); c != lastCap {
			if lastCap != 0 && c < 2*lastCap {
				t.Fatalf("event log grew %d -> %d entries, less than doubling", lastCap, c)
			}
			grows, lastCap = grows+1, c
		}
	}
	if grows > 4 {
		t.Errorf("%d events took %d growths, want at most 4 (1024, 2048, 4096, 8192)", n, grows)
	}
	r.Reset()
	if allocs := testing.AllocsPerRun(10, func() { r.Reset(); fill(r) }); allocs != 0 {
		t.Errorf("refilling a Reset recorder allocated %.0f times, want 0", allocs)
	}
}

func BenchmarkWriteJSONL(b *testing.B) {
	events := mixedEvents(4096)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteJSONL(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmitGrowth fills a fresh detailed recorder to the size of a
// 1 MiB transfer's log, so B/op is what growing the log costs
// (BenchmarkEmitDetailed reuses one log and never sees growth).
func BenchmarkEmitGrowth(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewDetailed()
		for j := 0; j < 5000; j++ {
			r.PacketSent(time.Duration(j), uint64(j), 1350, 1)
		}
	}
}
