package tcp

import (
	"slices"
	"testing"
	"time"

	"quiclab/internal/trace"
)

// TestWireEncodeTransferEquivalent runs the same lossy transfer with and
// without WireEncode. The mode adds an encode->decode-verify round trip
// per segment (the receiver panics on any mismatch, so completing at all
// is the encoder-equivalence check — including SACK/DSACK options under
// loss) and must not change behavior: same completion time, same event
// log at both ends.
func TestWireEncodeTransferEquivalent(t *testing.T) {
	link := fastLink()
	link.LossProb = 0.02 // exercise SACK blocks and retransmissions
	run := func(wireEncode bool) (time.Duration, []trace.Event) {
		rec := trace.NewDetailed()
		cfg := Config{WireEncode: wireEncode, Tracer: rec}
		tb := newTestbed(7, link, cfg, cfg)
		tb.serveEcho(300, 500_000)
		conn := tb.client.Dial(2)
		done := fetch(tb, conn, 300, 500_000)
		tb.sim.RunUntil(30 * time.Second)
		if *done < 0 {
			t.Fatalf("transfer (wireEncode=%v) did not complete", wireEncode)
		}
		return *done, rec.Events
	}
	plainDone, plainLog := run(false)
	wireDone, wireLog := run(true)
	if plainDone != wireDone {
		t.Errorf("completion time changed: %v plain, %v with WireEncode", plainDone, wireDone)
	}
	if !slices.Equal(plainLog, wireLog) {
		t.Errorf("event log changed: %d events plain, %d with WireEncode", len(plainLog), len(wireLog))
	}
}
