package quic

import (
	"slices"
	"testing"
	"time"

	"quiclab/internal/netem"
	"quiclab/internal/trace"
	"quiclab/internal/wire"
)

// TestWireEncodeTransferEquivalent runs the same lossy transfer with and
// without WireEncode. The mode adds an encode->decode-verify round trip
// per packet (the receiver panics on any mismatch, so completing at all
// is the encoder-equivalence check) and must not change behavior: same
// completion time, same event log at both ends.
func TestWireEncodeTransferEquivalent(t *testing.T) {
	link := fastLink()
	link.LossProb = 0.02 // exercise retransmissions and multi-range acks
	run := func(wireEncode bool) (time.Duration, []trace.Event) {
		rec := trace.NewDetailed()
		cfg := Config{WireEncode: wireEncode, Tracer: rec}
		tb := newTestbed(7, link, cfg, cfg)
		tb.serveObjects(500_000)
		conn := tb.client.Dial(2)
		done := fetch(tb, conn, 300)
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

// TestWireEncodeLossyLinkReleasesBuffers checks dropped packets release
// their wire buffers through the link drop paths (loss + queue overflow)
// rather than leaking them — the transfer completes with heavy loss and
// a tiny queue while every surviving packet still decode-verifies.
func TestWireEncodeLossyLinkReleasesBuffers(t *testing.T) {
	link := netem.Config{RateBps: 10_000_000, Delay: testRTT / 2, LossProb: 0.1, QueueBytes: 16 << 10}
	srv := trace.New()
	tb := newTestbed(11, link, Config{WireEncode: true}, Config{WireEncode: true, Tracer: srv})
	tb.serveObjects(200_000)
	conn := tb.client.Dial(2)
	done := fetch(tb, conn, 300)
	tb.sim.RunUntil(60 * time.Second)
	if *done < 0 {
		t.Fatal("transfer did not complete")
	}
	if s := srv.Summary(0); len(tb.accepted) == 0 || s.PacketsLost+s.TLPs+s.RTOs == 0 {
		t.Fatal("expected server-side retransmissions under 10% loss")
	}
}

// TestVerifyWireCatchesFrameChangedInFlight: verifyWire compares every
// decoded frame's type and fields with the frame the packet carries on
// arrival, so a frame changed after its image was encoded — here an
// offset, which leaves every size unchanged — panics, while what the wire
// rounds (an ack delay below a microsecond) does not.
func TestVerifyWireCatchesFrameChangedInFlight(t *testing.T) {
	build := func() (*packet, *netem.PacketBuf) {
		p := getPacket()
		af := getAckFrame()
		af.LargestAcked, af.AckDelay = 9, 1500*time.Nanosecond
		af.Ranges = append(af.Ranges, wire.AckRange{Smallest: 3, Largest: 9})
		p.items = append(p.items, frame{ctl: af},
			frame{stream: wire.StreamFrame{StreamID: 1, Offset: 4000, Length: 900}},
			frame{ctl: &wire.WindowUpdateFrame{StreamID: 1, Offset: 1 << 20}})
		(&Conn{id: 7, nextPN: 12}).finishPacket(p)
		buf := netem.GetBuf()
		buf.B = wire.AppendQUICPacket(buf.B, p.connID, p.pn, p.frames)
		return p, buf
	}
	p, buf := build()
	verifyWire(buf, p) // unchanged: passes
	for _, change := range []struct {
		name string
		fn   func(p *packet)
	}{
		{"stream offset", func(p *packet) { p.items[1].stream.Offset += 1350 }},
		{"stream fin", func(p *packet) { p.items[1].stream.Fin = true }},
		{"ack range", func(p *packet) { p.items[0].ctl.(*wire.AckFrame).Ranges[0].Smallest = 4 }},
		{"window update", func(p *packet) { p.items[2].ctl.(*wire.WindowUpdateFrame).Offset++ }},
	} {
		p, buf := build()
		change.fn(p)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s changed in flight: verifyWire did not panic", change.name)
				}
			}()
			verifyWire(buf, p)
		}()
	}
}
