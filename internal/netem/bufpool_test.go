package netem

import (
	"sync"
	"testing"
	"time"

	"quiclab/internal/sim"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if s, ok := r.(string); !ok || s != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	fn()
}

func TestPacketDoubleReleasePanics(t *testing.T) {
	p := NewPacket(1, 2, 100, nil)
	p.Release()
	mustPanic(t, "netem: double release of pooled Packet", p.Release)
}

func TestBufDoubleReleasePanics(t *testing.T) {
	b := GetBuf()
	b.Release()
	mustPanic(t, "netem: double release of PacketBuf", b.Release)
}

func TestNonPooledReleaseNoop(t *testing.T) {
	p := &Packet{Src: 1, Dst: 2, Size: 64}
	p.Release()
	p.Release() // still a no-op: literal packets are not pooled
}

// TestReleaseFreesAttachedWire: releasing the envelope releases an
// attached wire buffer too, and TakeWire transfers that obligation.
func TestReleaseFreesAttachedWire(t *testing.T) {
	p := NewPacket(1, 2, 100, nil)
	b := GetBuf()
	p.Wire = b
	p.Release()
	mustPanic(t, "netem: double release of PacketBuf", b.Release)

	p = NewPacket(1, 2, 100, nil)
	b = GetBuf()
	p.Wire = b
	w := p.TakeWire()
	if w != b {
		t.Fatal("TakeWire returned a different buffer")
	}
	p.Release() // must not release the detached buffer
	w.Release()
}

// TestDropPathsReleaseEnvelope drives each drop path and checks the
// pooled envelope is released exactly once (a second Release panics).
func TestDropPathsReleaseEnvelope(t *testing.T) {
	s := sim.New(1)

	// Queue overflow.
	l := NewLink(s, Config{RateBps: 8000, QueueBytes: 100})
	l.Out = func(p *Packet) { p.Release() }
	fill := NewPacket(1, 2, 100, nil)
	l.Send(fill)
	over := NewPacket(1, 2, 100, nil)
	l.Send(over)
	if l.Stats().DroppedQueue != 1 {
		t.Fatalf("DroppedQueue = %d, want 1", l.Stats().DroppedQueue)
	}
	mustPanic(t, "netem: double release of pooled Packet", over.Release)

	// Bernoulli loss (probability 1).
	l2 := NewLink(s, Config{LossProb: 1})
	l2.Out = func(p *Packet) { p.Release() }
	lost := NewPacket(1, 2, 100, nil)
	l2.Send(lost)
	mustPanic(t, "netem: double release of pooled Packet", lost.Release)

	// No route.
	n := NewNetwork(s)
	orphan := NewPacket(1, 2, 100, nil)
	n.Send(orphan)
	mustPanic(t, "netem: double release of pooled Packet", orphan.Release)
}

// TestLinkTransferZeroAlloc is the hot-path guard for the link layer:
// pooled envelope + closure-free scheduling means a steady-state
// Send -> serialize -> deliver cycle must not allocate.
func TestLinkTransferZeroAlloc(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, Config{RateBps: 1e9, Delay: time.Millisecond})
	l.Out = func(p *Packet) { p.Release() }
	for i := 0; i < 256; i++ {
		l.Send(NewPacket(1, 2, 1350, nil))
	}
	s.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Send(NewPacket(1, 2, 1350, nil))
		s.RunUntil(s.Now() + 10*time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("link transfer allocated %v times per run, want 0", allocs)
	}
}

// TestBackloggedLinkZeroAlloc: a link that never idles holds its packets in
// circular lanes, so a transfer's length costs it nothing — 10 000 packets
// through a standing queue allocate nothing once warm, and neither does the
// out-of-order path jitter sends arrivals down.
func TestBackloggedLinkZeroAlloc(t *testing.T) {
	for _, jitter := range []time.Duration{0, 2 * time.Millisecond} {
		s := sim.New(1)
		l := NewLink(s, Config{RateBps: 100e6, Delay: 18 * time.Millisecond, Jitter: jitter})
		l.Out = l.Send // every delivery goes round again: 200 packets stay on the link
		for i := 0; i < 200; i++ {
			l.Send(&Packet{Src: 1, Dst: 2, Size: 1350})
		}
		const pkts = 10000
		span := pkts * 1350 * 8 * time.Second / 100e6
		s.RunUntil(s.Now() + span)
		before := l.Stats().Delivered
		allocs := testing.AllocsPerRun(1, func() { s.RunUntil(s.Now() + span) })
		if got := l.Stats().Delivered - before; got < pkts || l.QueuedPackets() == 0 {
			t.Fatalf("jitter %v: %d packets delivered, %d queued; the test needs %d through a standing queue", jitter, got, l.QueuedPackets(), pkts)
		}
		if allocs != 0 {
			t.Fatalf("jitter %v: %v allocations over %d packets, want 0", jitter, allocs, pkts)
		}
	}
}

// TestPoolsConcurrentSims exercises the packet and buffer pools from
// parallel simulations, mirroring the matrix engine's worker pool; run
// under -race this checks the sync.Pool handoff is clean.
func TestPoolsConcurrentSims(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s := sim.New(seed)
			l := NewLink(s, Config{RateBps: 1e8, Delay: time.Millisecond})
			got := 0
			l.Out = func(p *Packet) {
				if w := p.TakeWire(); w != nil {
					w.Release()
				}
				got++
				p.Release()
			}
			for i := 0; i < 2000; i++ {
				p := NewPacket(1, 2, 1200, nil)
				p.Wire = GetBuf()
				p.Wire.B = append(p.Wire.B, make([]byte, 1200)...)
				l.Send(p)
			}
			s.Run()
			if got == 0 {
				t.Error("no packets delivered")
			}
		}(int64(w))
	}
	wg.Wait()
}
