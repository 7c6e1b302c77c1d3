package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

const opSlots = 16

// timerQueue is what timerScript drives: the simulator (simQueue) or the
// naive queue it must match (refQueue). Timers live in numbered slots;
// Schedule into slot -1 keeps no handle.
type timerQueue interface {
	Now() time.Duration
	Schedule(slot int, d time.Duration, fn func())
	Stop(slot int) bool
	Reschedule(slot int, d time.Duration, fn func())
	Armed(slot int) bool
	Step() bool
	RunUntil(deadline time.Duration)
	Pending() int
}

type simQueue struct {
	*Simulator
	timers [opSlots]Timer
}

func (q *simQueue) Schedule(slot int, d time.Duration, fn func()) {
	if tm := q.Simulator.Schedule(d, fn); slot >= 0 {
		q.timers[slot] = tm
	}
}

func (q *simQueue) Stop(slot int) bool { return q.timers[slot].Stop() }

func (q *simQueue) Reschedule(slot int, d time.Duration, fn func()) {
	q.timers[slot] = q.Simulator.Reschedule(q.timers[slot], d, fn)
}

func (q *simQueue) Armed(slot int) bool { return q.timers[slot].Pending() }

// refQueue is the obvious event queue: a slice kept sorted by (at, seq),
// searched linearly, where a timer's handle is its entry and Reschedule is
// Stop followed by Schedule.
type refQueue struct {
	now    time.Duration
	queue  []*refEntry
	timers [opSlots]*refEntry
}

type refEntry struct {
	at time.Duration
	fn func()
}

func (q *refQueue) Now() time.Duration { return q.now }

func (q *refQueue) Schedule(slot int, d time.Duration, fn func()) {
	e := &refEntry{at: q.now + max(d, 0), fn: fn}
	i := len(q.queue) // after every entry due at or before e: (at, seq) order
	for i > 0 && q.queue[i-1].at > e.at {
		i--
	}
	q.queue = slices.Insert(q.queue, i, e)
	if slot >= 0 {
		q.timers[slot] = e
	}
}

func (q *refQueue) Stop(slot int) bool {
	i := slices.Index(q.queue, q.timers[slot])
	if i >= 0 {
		q.queue = slices.Delete(q.queue, i, i+1)
	}
	return i >= 0
}

func (q *refQueue) Reschedule(slot int, d time.Duration, fn func()) {
	q.Stop(slot)
	q.Schedule(slot, d, fn)
}

func (q *refQueue) Armed(slot int) bool { return slices.Contains(q.queue, q.timers[slot]) }

func (q *refQueue) Step() bool {
	if len(q.queue) == 0 {
		return false
	}
	e := q.queue[0]
	q.queue = slices.Delete(q.queue, 0, 1)
	q.now = max(q.now, e.at)
	e.fn()
	return true
}

func (q *refQueue) RunUntil(deadline time.Duration) {
	for len(q.queue) > 0 && q.queue[0].at <= deadline {
		q.Step()
	}
	if len(q.queue) > 0 {
		q.now = max(q.now, deadline)
	}
}

func (q *refQueue) Pending() int { return len(q.queue) }

// timerScript interprets script as (op, arg) byte pairs over q and returns
// the firing log, with what every Stop and Step reported, and the clock,
// Pending() and the armed slots after every op. A timer's callback does
// what the arg that armed it says: nothing, stop a slot (its own included,
// which has just fired), re-arm itself, or schedule a one-shot.
func timerScript(t *testing.T, q timerQueue, script []byte) []string {
	t.Helper()
	var log []string
	oneShots := 0
	oneShot := func(d time.Duration) {
		n := oneShots
		oneShots++
		q.Schedule(-1, d, func() { log = append(log, fmt.Sprintf("event %d @%v", n, q.Now())) })
	}
	var timerFn func(slot, arg int) func()
	timerFn = func(slot, arg int) func() {
		return func() {
			log = append(log, fmt.Sprintf("timer %d @%v", slot, q.Now()))
			d := time.Duration(arg%64) * time.Millisecond
			switch arg >> 5 {
			case 1, 2:
				other := (slot + arg) % opSlots
				log = append(log, fmt.Sprintf("  stop %d: %v", other, q.Stop(other)))
			case 3: // arg/2 arms an action below 3, so the chain ends
				q.Reschedule(slot, d, timerFn(slot, arg/2))
			case 4:
				oneShot(d)
			}
		}
	}
	for len(script) >= 2 {
		op, arg := script[0], int(script[1])
		script = script[2:]
		slot, d := arg%opSlots, time.Duration(arg%64)*time.Millisecond
		switch op % 10 {
		case 0, 1:
			q.Schedule(slot, d, timerFn(slot, arg))
		case 2:
			q.Schedule(slot, d-20*time.Millisecond, timerFn(slot, arg)) // clamped to now
		case 3: // one-shots live longer, so the heap is three and four levels deep
			oneShot(time.Duration(arg) * time.Millisecond)
		case 4, 5:
			log = append(log, fmt.Sprintf("stop %d: %v", slot, q.Stop(slot)))
		case 6:
			q.Reschedule(slot, d, timerFn(slot, 255-arg))
		case 7, 8:
			log = append(log, fmt.Sprintf("step: %v", q.Step()))
		case 9:
			q.RunUntil(q.Now() + d/8)
		}
		if sq, ok := q.(*simQueue); ok {
			checkHeap(t, sq.Simulator)
		}
		armed := 0
		for i := range opSlots {
			if q.Armed(i) {
				armed |= 1 << i
			}
		}
		log = append(log, fmt.Sprintf("now %v pending %d armed %04x", q.Now(), q.Pending(), armed))
	}
	for q.Step() {
	}
	return log
}

func checkTimerTwin(t *testing.T, script []byte) {
	t.Helper()
	want := timerScript(t, &refQueue{}, script)
	got := timerScript(t, &simQueue{Simulator: New(1)}, script)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("line %d is %q from the simulator, %q from the reference", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d log lines from the simulator, %d from the reference", len(got), len(want))
	}
}

// TestTimerOpsMatchReference: the heap with its in-place Stop, Reschedule
// and sifts fires event for event what a sorted slice fires, and agrees
// with it on every Stop's and Step's answer, the clock, Pending() and
// which timers are armed after every op — timers stopped from inside
// callbacks (their own included), re-armed from inside their own callback,
// clamped delays, same-instant ties and RunUntil deadlines.
func TestTimerOpsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		script := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(script)
		checkTimerTwin(t, script)
	}
}

// FuzzTimerOps is the same twin comparison over op scripts the fuzzer
// writes (`make chaos` runs it for a bounded time).
func FuzzTimerOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 4, 2, 7, 0, 7, 0})           // stop one of three, fire the rest
	f.Add([]byte{0, 40, 0, 71, 0, 100, 0, 130, 9, 255, 9, 255}) // callbacks that stop, re-arm, schedule
	f.Add([]byte{3, 5, 3, 5, 2, 9, 6, 9, 6, 9, 5, 9, 9, 40})    // ties, a clamped delay, re-arms, a stop
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<13 { // the per-op heap check makes a long script quadratic
			t.Skip()
		}
		checkTimerTwin(t, script)
	})
}
