package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// laneScript interprets script as a run of ops over two lanes, four timers
// and a crowd of one-shot events, and returns the firing log with the
// clock and whether the queue is empty appended after every op. With
// lanes false each lane entry is a ScheduleAt of its own — the reference
// the lane must match event for event. Everything an op or a callback
// does derives from the script and from values both twins share.
//
// An entry's value is run<<16 | id<<2 | action; when it fires, action 1
// pushes a child onto its own lane, 2 re-arms a timer, 3 stops the run.
func laneScript(t *testing.T, script []byte, lanes bool) []string {
	t.Helper()
	const ms = time.Millisecond
	actions := [8]int{0, 0, 0, 0, 1, 1, 2, 3} // by an op's top three argument bits
	s := New(1)
	var log []string
	run, ids := 0, 0
	var tails [2]time.Duration // latest instant pushed to each lane, as the twins agree it
	var outstanding [2]int
	var push [2]func(at time.Duration, v int)
	var ls [2]*Lane[int]
	var timers [4]Timer
	var timerFns [4]func()
	for i := range timerFns {
		i := i
		timerFns[i] = func() { log = append(log, fmt.Sprintf("timer %d @%v", i, s.Now())) }
	}
	fire := func(lane, v int) {
		if v>>16 != run {
			t.Errorf("lane %d: entry %#x of run %d fired in run %d", lane, v, v>>16, run)
		}
		outstanding[lane]--
		log = append(log, fmt.Sprintf("lane %d entry %d @%v", lane, v>>2&0x3fff, s.Now()))
		d := time.Duration(v>>2%13) * ms
		switch v & 3 {
		case 1: // sometimes due before the tail: d can be zero, the tail is not
			push[lane](s.Now()+d, v&^3+4096<<2)
		case 2:
			timers[v>>2&3] = s.Reschedule(timers[v>>2&3], d, timerFns[v>>2&3])
		case 3:
			s.Stop()
		}
	}
	for i := range push {
		i := i
		if lanes {
			ls[i] = NewLane(s, func(v int) { fire(i, v) })
		}
		push[i] = func(at time.Duration, v int) {
			outstanding[i]++
			tails[i] = max(tails[i], at)
			if lanes {
				ls[i].PushAt(at, v)
			} else {
				s.ScheduleAt(at, func() { fire(i, v) })
			}
		}
	}
	for len(script) >= 2 {
		op, arg := script[0], int(script[1])
		script = script[2:]
		d := time.Duration(arg%16) * ms
		switch op % 12 {
		case 0, 1, 2, 3: // in order: at or after the lane's tail, ties included
			lane := int(op % 2)
			ids++
			push[lane](max(tails[lane], s.Now())+d/4, run<<16|ids%4096<<2|actions[arg>>5])
		case 4: // anywhere from now on: before the tail as often as not
			ids++
			push[arg&1](s.Now()+d, run<<16|ids%4096<<2|actions[arg>>5])
		case 5:
			n := ids
			ids++
			s.ScheduleAt(s.Now()+d, func() { log = append(log, fmt.Sprintf("event %d @%v", n, s.Now())) })
		case 6:
			timers[arg&3] = s.Reschedule(timers[arg&3], d, timerFns[arg&3])
		case 7:
			timers[arg&3].Stop()
		case 8, 9:
			s.Step()
		case 10:
			s.RunUntil(s.Now() + d)
		case 11:
			if arg%8 != 0 {
				break
			}
			s.Reset(int64(arg))
			run++
			tails, outstanding = [2]time.Duration{}, [2]int{}
			if lanes && (ls[0].Len() != 0 || ls[1].Len() != 0 || s.Pending() != 0) {
				t.Fatalf("after Reset: lanes hold %d and %d, %d pending", ls[0].Len(), ls[1].Len(), s.Pending())
			}
		}
		checkHeap(t, s)
		for i, l := range ls {
			if lanes && l.Len() != outstanding[i] {
				t.Fatalf("lane %d: Len() = %d with %d entries outstanding", i, l.Len(), outstanding[i])
			}
		}
		log = append(log, fmt.Sprintf("now %v idle %v", s.Now(), s.Pending() == 0))
	}
	for s.Step() {
	}
	return log
}

func checkLaneTwin(t *testing.T, script []byte) {
	t.Helper()
	want := laneScript(t, script, false)
	got := laneScript(t, script, true)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("line %d is %q with lanes, %q with an event per entry", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d log lines with lanes, %d with an event per entry", len(got), len(want))
	}
}

// TestLaneMatchesSchedule: a run whose FIFOs are lanes is event for event
// the run that schedules every entry on its own — same-instant ties across
// two lanes and ordinary timers, pushes due before the tail, pushes and
// Reschedule from inside callbacks, Stop() mid-run, RunUntil deadlines
// that fall inside a lane, Step, and Reset with entries in flight (the
// lane is empty afterwards and no stale entry ever fires).
func TestLaneMatchesSchedule(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		script := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(script)
		checkLaneTwin(t, script)
	}
}

// FuzzLaneOrder is the same twin comparison over op scripts the fuzzer
// writes (`make chaos` runs it for a bounded time).
func FuzzLaneOrder(f *testing.F) {
	f.Add([]byte{0, 4, 1, 4, 4, 0, 10, 15})                           // a tie across lanes, a push before the tail, a deadline inside
	f.Add([]byte{0, 128, 0, 192, 0, 224, 10, 9, 8, 0, 11, 8, 0, 1})   // callbacks that push, re-arm and stop; Reset in flight
	f.Add([]byte{2, 3, 2, 3, 2, 3, 6, 1, 4, 161, 7, 1, 9, 0, 11, 16}) // a backlog with timers around it
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<13 { // the per-op heap check makes a long script quadratic
			t.Skip()
		}
		checkLaneTwin(t, script)
	})
}

// TestLaneOnlyHeadIsQueued is what the lane is for: however many entries
// wait in order, the queue holds one; a push due before the tail is queued
// on its own and fires in its place.
func TestLaneOnlyHeadIsQueued(t *testing.T) {
	s := New(1)
	var fired []int
	l := NewLane(s, func(v int) { fired = append(fired, v) })
	for i := 0; i < 1000; i++ {
		l.PushAt(time.Duration(i)*time.Microsecond, i)
	}
	if l.Len() != 1000 || s.Pending() != 1 || s.queueLen() != 1 {
		t.Fatalf("Len = %d, Pending = %d, queueLen = %d with 1000 entries in order, want 1000, 1, 1", l.Len(), s.Pending(), s.queueLen())
	}
	l.PushAt(500*time.Microsecond, 1000) // due before the tail: queued on its own
	if l.Len() != 1001 || s.Pending() != 2 {
		t.Fatalf("Len = %d, Pending = %d after one out-of-order push, want 1001, 2", l.Len(), s.Pending())
	}
	s.RunUntil(499 * time.Microsecond) // a deadline inside the lane
	if len(fired) != 500 || l.Len() != 501 || s.Pending() != 2 {
		t.Fatalf("fired %d, Len = %d, Pending = %d at the deadline, want 500, 501, 2", len(fired), l.Len(), s.Pending())
	}
	s.Run()
	var want []int
	for i := 0; i < 1000; i++ {
		if want = append(want, i); i == 500 {
			want = append(want, 1000)
		}
	}
	if !slices.Equal(fired, want) || l.Len() != 0 || s.Pending() != 0 {
		t.Fatalf("fired %d entries (Len %d, Pending %d); entry 1000 must follow entry 500", len(fired), l.Len(), s.Pending())
	}
}

// TestLaneZeroAlloc: a lane that never empties reuses its ring (circular,
// it grows only when full), and an out-of-order push parks its value in a
// recycled slot — neither path allocates per entry once warm.
func TestLaneZeroAlloc(t *testing.T) {
	s := New(1)
	sum := 0
	l := NewLane(s, func(v int) { sum += v })
	at := time.Duration(0)
	round := func() {
		for i := 0; i < 8; i++ {
			at += time.Microsecond
			l.PushAt(at+100*time.Microsecond, 1000+i)
		}
		l.PushAt(at+50*time.Microsecond, 7) // before the tail
		s.RunUntil(at)
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if l.Len() == 0 {
		t.Fatal("the lane drained; the test needs a standing backlog")
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("push+fire allocated %v times per round of 9, want 0", allocs)
	}
	if s.Run(); l.Len() != 0 || sum == 0 {
		t.Fatalf("Len = %d, sum = %d after the run", l.Len(), sum)
	}
}
