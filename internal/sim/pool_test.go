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
// captures) must become collectable at Stop time, not when the dead heap
// entry is eventually popped or compacted away.
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

// TestCompactionRecyclesDeadEntries verifies the >50% dead compaction:
// cancel-heavy workloads must not grow the queue (or strand dead event
// records) linearly with the number of cancelled timers.
func TestCompactionRecyclesDeadEntries(t *testing.T) {
	s := New(1)
	s.Schedule(time.Hour, func() {}) // one live anchor
	for i := 0; i < 10000; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {}).Stop()
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	// Lazy deletion plus compaction must keep the raw queue bounded by
	// ~2x compactMin, not the 10k cancellations.
	if got := s.queueLen(); got > 2*compactMin {
		t.Fatalf("queueLen = %d after cancel churn, want <= %d", got, 2*compactMin)
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

// TestCompactionPreservesOrder schedules with randomized delays, cancels
// half, compacts, and checks the survivors still fire in (at, seq) order.
func TestCompactionPreservesOrder(t *testing.T) {
	s := New(99)
	type rec struct {
		at  time.Duration
		seq int
	}
	var fired []rec
	seq := 0
	var timers []Timer
	for i := 0; i < 500; i++ {
		i := i
		d := time.Duration(s.Rand().Intn(50)) * time.Millisecond
		timers = append(timers, s.Schedule(d, func() {
			fired = append(fired, rec{s.Now(), i})
		}))
	}
	for i := 0; i < len(timers); i += 2 {
		timers[i].Stop()
	}
	_ = seq
	s.Run()
	if len(fired) != 250 {
		t.Fatalf("fired %d events, want 250", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i].at < fired[i-1].at {
			t.Fatalf("events fired out of time order: %v then %v", fired[i-1], fired[i])
		}
	}
}
