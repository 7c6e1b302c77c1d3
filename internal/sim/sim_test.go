package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	s.Schedule(time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.Schedule(time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 2*time.Millisecond {
		t.Fatalf("fired = %v", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.Schedule(time.Millisecond, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled timer ran")
	}
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var count int
	for i := 1; i <= 10; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(5 * time.Second)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", s.Now())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	fired := time.Duration(-1)
	s.Schedule(time.Second, func() {
		s.Schedule(-5*time.Second, func() { fired = s.Now() })
	})
	s.Run()
	if fired != time.Second {
		t.Fatalf("fired at %v, want 1s (clamped)", fired)
	}
}

func TestStep(t *testing.T) {
	s := New(1)
	n := 0
	s.Schedule(time.Millisecond, func() { n++ })
	s.Schedule(2*time.Millisecond, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("first step: n=%d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second step: n=%d", n)
	}
	if s.Step() {
		t.Fatal("step on empty queue should report false")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var vals []int64
		var tick func()
		tick = func() {
			vals = append(vals, s.Rand().Int63n(1000))
			if len(vals) < 50 {
				s.Schedule(time.Duration(s.Rand().Intn(100))*time.Microsecond, tick)
			}
		}
		s.Schedule(0, tick)
		s.Run()
		return vals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

// Property: no matter in what order events are scheduled, they fire in
// nondecreasing time order and the clock never goes backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		var fireTimes []time.Duration
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Microsecond, func() {
				fireTimes = append(fireTimes, s.Now())
			})
		}
		s.Run()
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingCount(t *testing.T) {
	s := New(1)
	t1 := s.Schedule(time.Second, func() {})
	s.Schedule(2*time.Second, func() {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	t1.Stop()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}
}

// TestRunUntilNBudget: RunUntilN fires at most maxEvents events since the
// last Reset, stops before the next one with the clock at the last event
// fired, and reports exhaustion only when an event within the deadline is
// left unfired. Reset zeroes the count.
func TestRunUntilNBudget(t *testing.T) {
	s := New(1)
	var loop func()
	loop = func() { s.Schedule(time.Millisecond, loop) } // one event a millisecond, forever
	s.Schedule(0, loop)
	if !s.RunUntilN(time.Second, 100) {
		t.Fatal("a run that would fire 1001 events within the deadline was not stopped at 100")
	}
	if s.Fired() != 100 || s.Now() != 99*time.Millisecond || s.Pending() != 1 {
		t.Fatalf("stopped with fired=%d now=%v pending=%d, want 100, 99ms, 1", s.Fired(), s.Now(), s.Pending())
	}
	// The count carries across calls: 100 more is the budget's 200.
	if !s.RunUntilN(time.Second, 200) || s.Fired() != 200 {
		t.Fatalf("second call left fired=%d, want the budget's 200", s.Fired())
	}
	// Exactly the events up to the deadline fit the budget: not exhausted.
	if s.RunUntilN(time.Second, 1001) || s.Fired() != 1001 || s.Now() != time.Second {
		t.Fatalf("a budget that fits the run: fired=%d now=%v, want 1001 at 1s", s.Fired(), s.Now())
	}
	s.RunUntil(2 * time.Second) // unbounded
	if s.Fired() != 2001 {
		t.Fatalf("RunUntil fired %d in total, want 2001", s.Fired())
	}
	s.Reset(1)
	if s.Fired() != 0 {
		t.Fatalf("Reset left fired=%d", s.Fired())
	}
	s.Schedule(0, func() {})
	if s.Step(); s.Fired() != 0 {
		t.Fatalf("Step counted: fired=%d", s.Fired())
	}
}
