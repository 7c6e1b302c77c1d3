package netem

import (
	"testing"
	"testing/quick"
	"time"

	"quiclab/internal/sim"
)

// Property: packet conservation — every packet offered to a link is
// either delivered or counted as dropped, never duplicated or lost
// silently.
func TestPropertyPacketConservation(t *testing.T) {
	f := func(seed int64, lossTenths, nPkts uint8, queueKB uint8) bool {
		s := sim.New(seed)
		cfg := Config{
			RateBps:    5_000_000,
			Delay:      10 * time.Millisecond,
			LossProb:   float64(lossTenths%50) / 100,
			QueueBytes: (int(queueKB%60) + 4) << 10,
		}
		l := NewLink(s, cfg)
		delivered := 0
		l.Out = func(p *Packet) { delivered++ }
		total := int(nPkts) + 1
		for i := 0; i < total; i++ {
			i := i
			s.Schedule(time.Duration(i)*200*time.Microsecond, func() {
				l.Send(&Packet{Size: 1200, Payload: i})
			})
		}
		// Mid-run, at random instants: what was accepted is delivered or
		// still on the link, and the queue's bytes are its packets'.
		for s.Pending() > 0 {
			s.RunUntil(s.Now() + time.Duration(s.Rand().Int63n(int64(5*time.Millisecond))))
			if st := l.Stats(); st.Sent != st.Delivered+l.InFlight() ||
				l.QueuedPackets() > l.InFlight() || l.QueueLen() != 1200*l.QueuedPackets() {
				return false
			}
		}
		st := l.Stats()
		return delivered+st.DroppedQueue+st.DroppedLoss == total &&
			delivered == st.Delivered && l.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDropsBySrcAccounting(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, Config{RateBps: 8_000_000, QueueBytes: 2000})
	l.Out = func(p *Packet) {}
	for i := 0; i < 5; i++ {
		l.Send(&Packet{Src: 7, Size: 1000})
	}
	for i := 0; i < 5; i++ {
		l.Send(&Packet{Src: 9, Size: 1000})
	}
	s.Run()
	st := l.Stats()
	if st.DroppedQueue != 8 {
		t.Fatalf("dropped %d, want 8 (2-packet queue)", st.DroppedQueue)
	}
	if st.DropsBySrc[7] != 3 || st.DropsBySrc[9] != 5 {
		t.Fatalf("per-src drops %v", st.DropsBySrc)
	}
}

func TestExplicitReorderKnob(t *testing.T) {
	s := sim.New(3)
	l := NewLink(s, Config{RateBps: 10_000_000, Delay: 20 * time.Millisecond, ReorderProb: 0.05})
	var order []int
	l.Out = func(p *Packet) { order = append(order, p.Payload.(int)) }
	for i := 0; i < 2000; i++ {
		i := i
		s.Schedule(time.Duration(i)*1100*time.Microsecond, func() {
			l.Send(&Packet{Size: 1200, Payload: i})
		})
	}
	s.Run()
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	rate := float64(inversions) / float64(len(order))
	if rate < 0.01 || rate > 0.15 {
		t.Fatalf("reorder rate %.3f; want near the 5%% knob", rate)
	}
	if l.Stats().Reordered == 0 {
		t.Fatal("reordered counter not incremented")
	}
}

func TestReorderExtraDefaultScalesWithRate(t *testing.T) {
	s := sim.New(4)
	// Unlimited-rate link: default hold-back is 5ms.
	l := NewLink(s, Config{Delay: 10 * time.Millisecond, ReorderProb: 1})
	var at time.Duration
	l.Out = func(p *Packet) { at = s.Now() }
	l.Send(&Packet{Size: 1000})
	s.Run()
	if at != 15*time.Millisecond {
		t.Fatalf("arrival %v, want delay+5ms", at)
	}
}

func TestHandlerFuncAdapter(t *testing.T) {
	called := false
	h := HandlerFunc(func(p *Packet) { called = true })
	h.HandlePacket(&Packet{})
	if !called {
		t.Fatal("HandlerFunc did not dispatch")
	}
}

func TestAddrString(t *testing.T) {
	if Addr(7).String() != "n7" {
		t.Fatalf("got %q", Addr(7).String())
	}
}

func TestDefaultQueueBytes(t *testing.T) {
	if DefaultQueueBytes(0) != 1<<20 {
		t.Fatal("unlimited-rate default")
	}
	if got := DefaultQueueBytes(100_000_000); got != 100_000_000/8/10 {
		t.Fatalf("100Mbps default %d", got)
	}
	if got := DefaultQueueBytes(1_000_000); got != 64<<10 {
		t.Fatalf("low-rate floor %d", got)
	}
}

func TestZeroRatePassthrough(t *testing.T) {
	// RateBps 0 = unlimited: no queueing, no drops, exact delay.
	s := sim.New(5)
	l := NewLink(s, Config{Delay: 7 * time.Millisecond})
	n := 0
	l.Out = func(p *Packet) { n++ }
	for i := 0; i < 1000; i++ {
		l.Send(&Packet{Size: 1500})
	}
	s.Run()
	if n != 1000 || l.Stats().DroppedQueue != 0 {
		t.Fatalf("unlimited link dropped: delivered=%d", n)
	}
	if s.Now() != 7*time.Millisecond {
		t.Fatalf("clock %v, want exactly the delay", s.Now())
	}
}
