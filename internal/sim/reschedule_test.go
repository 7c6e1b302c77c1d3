package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// rearmScript drives one simulator through a seeded script of schedule /
// stop / re-arm / step over eight timers and a crowd of one-shot events,
// re-arming through rearm. Every callback logs itself; timer callbacks
// sometimes re-arm their own timer from inside. It returns the firing log
// with Pending() appended after every op.
func rearmScript(t *testing.T, seed int64, ops int, rearm func(s *Simulator, tm Timer, d time.Duration, fn func()) Timer) []string {
	s := New(seed)
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var timers [8]Timer
	var fns [8]func()
	delay := func() time.Duration { return time.Duration(rng.Intn(40)) * time.Millisecond }
	for i := range fns {
		i := i
		fns[i] = func() {
			log = append(log, fmt.Sprintf("timer %d @%v", i, s.Now()))
			if rng.Intn(3) == 0 { // re-arm inside the timer's own callback
				timers[i] = rearm(s, timers[i], delay(), fns[i])
			}
		}
	}
	oneShots := 0
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 2:
			n := oneShots
			oneShots++
			s.Schedule(delay(), func() { log = append(log, fmt.Sprintf("event %d @%v", n, s.Now())) })
		case k < 3:
			timers[rng.Intn(8)].Stop()
		case k < 7:
			i := rng.Intn(8)
			timers[i] = rearm(s, timers[i], delay(), fns[i])
		case k < 8:
			// A burst of cancelled one-shots, each taken out of the queue
			// around whatever timers are pending.
			for j := 0; j < 80; j++ {
				s.Schedule(delay(), func() { t.Error("cancelled event fired") }).Stop()
			}
		default:
			s.Step()
		}
		checkHeap(t, s)
		log = append(log, fmt.Sprintf("pending %d", s.Pending()))
	}
	for s.Step() {
	}
	return log
}

// checkHeap verifies the queue is a 4-ary heap on (at, seq), that every
// record knows its own position, and that every entry is live: Stop leaves
// nothing behind.
func checkHeap(t *testing.T, s *Simulator) {
	t.Helper()
	for i, ev := range s.events {
		if ev.fn == nil && ev.lane == nil {
			t.Fatalf("events[%d] is dead", i)
		}
		if ev.idx != i {
			t.Fatalf("events[%d].idx = %d", i, ev.idx)
		}
		if i > 0 && eventLess(ev, s.events[(i-1)/4]) {
			t.Fatalf("events[%d] sorts before its parent", i)
		}
	}
}

// TestRescheduleMatchesStopSchedule: a run that re-arms with Reschedule is
// event for event the run that re-arms with Stop + Schedule — same firing
// sequence, same Pending() after every op — including re-arming from
// inside the timer's own callback and around bursts of cancellations.
func TestRescheduleMatchesStopSchedule(t *testing.T) {
	stopSchedule := func(s *Simulator, tm Timer, d time.Duration, fn func()) Timer {
		tm.Stop()
		return s.Schedule(d, fn)
	}
	for seed := int64(1); seed <= 20; seed++ {
		want := rearmScript(t, seed, 3000, stopSchedule)
		got := rearmScript(t, seed, 3000, (*Simulator).Reschedule)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines with Reschedule, %d with Stop+Schedule", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d is %q with Reschedule, %q with Stop+Schedule", seed, i, got[i], want[i])
			}
		}
	}
}

// TestRescheduleLeavesNoTombstone is what the primitive is for: re-arming a
// pending timer neither grows the queue nor allocates.
func TestRescheduleLeavesNoTombstone(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 100; i++ {
		s.Schedule(time.Duration(i)*time.Second, fn)
	}
	tm := s.Schedule(time.Hour, fn)
	d := time.Duration(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		d += 7 * time.Second // lands all over the queue
		tm = s.Reschedule(tm, d%(90*time.Second), fn)
	}); allocs != 0 {
		t.Fatalf("Reschedule allocated %v times per re-arm, want 0", allocs)
	}
	if got := s.queueLen(); got != 101 || s.Pending() != 101 {
		t.Fatalf("queueLen = %d, Pending = %d after 1000 re-arms, want 101 and 101", got, s.Pending())
	}
	checkHeap(t, s)
}

// TestRescheduleStaleTimer: a Timer copy held across its event's firing and
// the record's reuse is inert — re-arming through it schedules a new event
// and leaves the record's new occupant alone.
func TestRescheduleStaleTimer(t *testing.T) {
	s := New(1)
	var fired []string
	stale := s.Schedule(time.Millisecond, func() { fired = append(fired, "first") })
	s.Run()
	occupant := s.Schedule(time.Second, func() { fired = append(fired, "occupant") })
	if stale.ev != occupant.ev {
		t.Fatal("the fired record was not reused; the test needs it to be")
	}
	rearmed := s.Reschedule(stale, 2*time.Second, func() { fired = append(fired, "rearmed") })
	if rearmed.ev == occupant.ev || !occupant.Pending() || s.Pending() != 2 {
		t.Fatalf("stale re-arm touched the occupant (pending %d)", s.Pending())
	}
	s.Run()
	if fmt.Sprint(fired) != "[first occupant rearmed]" {
		t.Fatalf("fired %v", fired)
	}
}
