package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestScheduleFireZeroAlloc is the hot-path guard: once the free list is
// warm, Schedule + fire of a pooled event must not allocate (mirrors the
// PR 1 trace alloc guard). A regression here multiplies across every
// packet of every cell of every sweep.
func TestScheduleFireZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm the free list and the heap slice.
	for i := 0; i < 256; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	s.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Microsecond, fn)
		s.RunUntil(s.Now() + time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("Schedule+fire allocated %v times per run, want 0", allocs)
	}
}

// TestStopReleasesCapturesImmediately is the regression test for the
// Timer.Stop retention bug: a stopped timer's closure (and everything it
// captures) must become collectable at Stop time, whatever else is still
// queued.
func TestStopReleasesCapturesImmediately(t *testing.T) {
	s := New(1)
	collected := make(chan struct{})
	tm := func() Timer {
		big := make([]byte, 1<<20)
		runtime.SetFinalizer(&big[0], func(*byte) { close(collected) })
		return s.Schedule(time.Hour, func() { _ = big[0] })
	}()
	// A long-lived anchor keeps the heap entry itself alive.
	s.Schedule(2*time.Hour, func() {})
	tm.Stop()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
	}
	t.Fatal("stopped timer still retains its closure captures")
}

// TestStopChurnZeroAlloc: Stop takes its entry out of the queue at once
// and recycles the record, so Schedule+Stop churn behind a live anchor
// neither allocates nor leaves anything behind in the heap.
func TestStopChurnZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	s.Schedule(time.Hour, fn)  // the live anchor
	for i := 0; i < 256; i++ { // warm the free list and the heap slice
		s.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	s.RunUntil(time.Second)
	d := time.Duration(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		d += 7 * time.Minute // before and after the anchor
		s.Schedule(d%(2*time.Hour), fn).Stop()
	}); allocs != 0 {
		t.Fatalf("Schedule+Stop allocated %v times per run, want 0", allocs)
	}
	if s.queueLen() != 1 || s.Pending() != 1 {
		t.Fatalf("queueLen = %d, Pending = %d after the churn, want 1 and 1", s.queueLen(), s.Pending())
	}
}

// TestStaleTimerAfterRecycle pins the generation guard: once an event
// fires and its record is recycled into a new event, the old Timer must
// neither report Pending nor cancel the record's new occupant.
func TestStaleTimerAfterRecycle(t *testing.T) {
	s := New(1)
	t1 := s.Schedule(time.Millisecond, func() {})
	s.Run()
	if t1.Pending() {
		t.Fatal("fired timer reports pending")
	}
	ran := false
	t2 := s.Schedule(time.Millisecond, func() { ran = true })
	if t1.ev == t2.ev && t1.gen == t2.gen {
		t.Fatal("recycled record kept its generation")
	}
	if t1.Stop() {
		t.Fatal("stale timer cancelled a recycled event")
	}
	s.Run()
	if !ran {
		t.Fatal("second event did not run (cancelled via stale handle?)")
	}
}

// queueLen reports the raw heap length, for tests that check no dead
// entry is ever left in it.
func (s *Simulator) queueLen() int { return len(s.events) }
