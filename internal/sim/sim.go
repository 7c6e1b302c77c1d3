// Package sim provides a deterministic discrete-event simulator with a
// virtual clock. All transports, links, and applications in quiclab are
// event-driven objects scheduled on a Simulator, which makes experiments
// repeatable (given a seed) and fast: simulated seconds cost microseconds
// of wall time.
//
// The zero time is the start of the simulation. Events scheduled for the
// same instant fire in the order they were scheduled (FIFO tie-breaking),
// which keeps runs deterministic.
//
// The scheduler is allocation-free in steady state: event records are
// recycled through a per-simulator free list, the pending queue is a
// 4-ary min-heap over a flat slice (no container/heap boxing), and Timer
// is a value type, so Schedule+fire costs zero heap allocations once the
// free list is warm. A stopped timer leaves the queue at once (its record
// knows its heap index), so every entry in the queue is one that will run;
// a timer that is re-armed rather than cancelled moves in place
// (Reschedule).
// A FIFO of events (a link's packets in flight) is a Lane: it keeps its
// entries to itself and only its head in the queue (see DESIGN.md §12).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Simulator owns the virtual clock and the pending event queue.
type Simulator struct {
	now           time.Duration
	seq           uint64
	epoch         uint64   // Resets so far; a Lane holding an older one is stale
	events        []*event // 4-ary min-heap ordered by (at, seq)
	free          []*event // recycled event records
	fired         uint64   // events RunUntil's loop has fired since the last Reset
	rng           *rand.Rand
	running       bool
	stopRequested bool
}

// New returns a simulator whose random source is seeded with seed.
// The same seed always produces the same run.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Reset returns the simulator to the state New(seed) would produce while
// keeping the event free list and the heap slice's capacity, so a warm
// simulator can be reused across runs without reallocating its machinery.
// Pending events are cancelled and recycled (the generation bump makes
// every outstanding Timer inert, the epoch bump empties every Lane).
// Calling Reset during Run panics.
func (s *Simulator) Reset(seed int64) {
	if s.running {
		panic("sim: Reset during Run")
	}
	s.epoch++
	for i, ev := range s.events {
		s.release(ev)
		s.events[i] = nil
	}
	s.events = s.events[:0]
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stopRequested = false
	// Seed re-initialises the generator exactly as rand.NewSource(seed)
	// does, so a reset simulator draws the same sequence as a fresh one.
	s.rng.Seed(seed)
}

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// event is one scheduled callback. Records are recycled through the
// simulator's free list; gen increments on every recycle so stale Timers
// (handles to a fired or stopped event) can never cancel the record's next
// occupant.
type event struct {
	at  time.Duration
	seq uint64
	gen uint64
	idx int // position in Simulator.events while queued (Stop and Reschedule start there)
	fn  func()
	// lane, when set, makes the record a Lane's entry in the queue instead
	// of a callback: its head (slot < 0) or one out-of-order push.
	lane laneRef
	slot int
}

// Timer is a handle to a scheduled event. The zero value is inert.
// Cancelling a fired or already cancelled timer is a no-op. Timer is a
// value type: holding or copying one never allocates.
type Timer struct {
	s   *Simulator
	ev  *event
	gen uint64
}

// Pending reports whether the timer is still scheduled to fire. A record
// that fires or is stopped is recycled under a new generation, so the
// generation alone says whether this handle's event is still queued.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// Stop cancels the timer. It reports whether the event had still been
// pending. The entry leaves the queue at once and its record is recycled,
// so the callback (and anything it captures) is released immediately.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	t.s.remove(t.ev)
	t.s.release(t.ev)
	return true
}

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero (fires "now", after currently queued events for now).
func (s *Simulator) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// Reschedule re-arms t to run fn after delay and returns the handle to keep.
// Every run is event for event what t.Stop() followed by Schedule(delay, fn)
// makes it: the event takes the sequence number Schedule would have drawn,
// so it fires after everything already queued for its new instant. What
// differs is the cost. A pending timer's record is re-keyed and sifted to
// its place in one pass instead of a removal and a push; an inert one is
// scheduled afresh.
func (s *Simulator) Reschedule(t Timer, delay time.Duration, fn func()) Timer {
	if !t.Pending() || fn == nil {
		return s.Schedule(delay, fn) // which panics on a nil fn
	}
	if delay < 0 {
		delay = 0
	}
	ev := t.ev
	ev.at, ev.seq = s.now+delay, s.seq
	ev.fn = fn
	s.seq++
	s.siftUp(ev.idx)
	s.siftDown(ev.idx)
	return t
}

// ScheduleAt runs fn at absolute virtual time t. Times in the past are
// clamped to now.
func (s *Simulator) ScheduleAt(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: ScheduleAt with nil fn")
	}
	if t < s.now {
		t = s.now
	}
	ev := s.alloc()
	ev.at = t
	ev.seq = s.seq
	ev.fn = fn
	s.seq++
	s.push(ev)
	return Timer{s: s, ev: ev, gen: ev.gen}
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	s.RunUntil(1<<63 - 1)
}

// Stop makes the active Run/RunUntil return after the current event.
// Call it from inside an event handler (e.g. when the measurement the
// run exists for has completed).
func (s *Simulator) Stop() { s.stopRequested = true }

// RunUntil executes events with timestamps <= deadline, advancing the
// clock. Events remaining after deadline stay queued; the clock is left at
// deadline if any events remain beyond it, or at the last event time
// otherwise.
func (s *Simulator) RunUntil(deadline time.Duration) {
	s.RunUntilN(deadline, math.MaxUint64)
}

// RunUntilN is RunUntil bounded by a budget of fired events: it stops
// before the event that would take Fired past maxEvents and reports
// exhausted, leaving that event queued and the clock at the last event
// fired. The count runs since the last Reset, so it is a property of the
// run alone — the same at any worker count and on any host.
func (s *Simulator) RunUntilN(deadline time.Duration, maxEvents uint64) (exhausted bool) {
	if s.running {
		panic("sim: reentrant Run")
	}
	s.running = true
	s.stopRequested = false
	defer func() { s.running = false }()
	for len(s.events) > 0 {
		if s.stopRequested {
			return false
		}
		ev := s.events[0]
		if ev.at > deadline {
			if s.now < deadline {
				s.now = deadline
			}
			return false
		}
		if s.fired == maxEvents {
			return true
		}
		s.fired++
		s.fire(ev)
	}
	return false
}

// Fired returns how many events RunUntil and RunUntilN have fired since
// the last Reset (Step's are not counted).
func (s *Simulator) Fired() uint64 { return s.fired }

// Step executes the single next pending event, if any, and reports whether
// one ran. Useful in tests.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	s.fire(s.events[0])
	return true
}

// fire runs the queue's root entry at its instant. A callback's record is
// popped and recycled first, so events the callback schedules can reuse it;
// a lane's entry is the lane's to advance or remove.
func (s *Simulator) fire(ev *event) {
	if ev.at > s.now {
		s.now = ev.at
	}
	if ev.lane != nil {
		ev.lane.fire(ev)
		return
	}
	s.remove(ev)
	fn := ev.fn
	s.release(ev)
	fn()
}

// Pending returns the number of entries the queue holds — the depth the
// heap works at: one per scheduled event and one per non-empty Lane (plus
// one per out-of-order push), so it is zero exactly when nothing is left
// to run.
func (s *Simulator) Pending() int { return len(s.events) }

func (s *Simulator) String() string {
	return fmt.Sprintf("sim(t=%v, pending=%d)", s.now, s.Pending())
}

// --- Event record recycling ---------------------------------------------

// eventBatch is how many records a cold free list allocates at once; one
// backing array serves the whole batch.
const eventBatch = 64

func (s *Simulator) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	batch := make([]event, eventBatch)
	for i := 1; i < eventBatch; i++ {
		s.free = append(s.free, &batch[i])
	}
	return &batch[0]
}

// release returns a record to the free list, dropping its callback so the
// captures become collectable. The generation bump invalidates every
// outstanding Timer pointing at the record.
func (s *Simulator) release(ev *event) {
	ev.fn, ev.lane = nil, nil
	ev.gen++
	s.free = append(s.free, ev)
}

// --- 4-ary min-heap over a flat slice -----------------------------------
//
// A 4-ary layout halves the tree depth of a binary heap: sift-down does
// more comparisons per level but those hit one cache line, and the
// transports' workload is push/pop dominated. Ordering is (at, seq) —
// identical to the previous container/heap ordering, so event execution
// order (and therefore every seeded run) is unchanged.

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) push(ev *event) {
	s.events = append(s.events, ev)
	s.siftUp(len(s.events) - 1)
}

func (s *Simulator) siftUp(i int) {
	es := s.events
	ev := es[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(ev, es[parent]) {
			break
		}
		es[i] = es[parent]
		es[i].idx = i
		i = parent
	}
	es[i] = ev
	ev.idx = i
}

// remove takes ev out of the heap: the last entry fills its slot and is
// sifted up or down from there. Popping the root is remove(s.events[0]).
func (s *Simulator) remove(ev *event) {
	i, n := ev.idx, len(s.events)-1
	last := s.events[n]
	s.events[n] = nil
	s.events = s.events[:n]
	if i == n {
		return
	}
	s.events[i] = last
	if i > 0 && eventLess(last, s.events[(i-1)/4]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}

func (s *Simulator) siftDown(i int) {
	es := s.events
	n := len(es)
	ev := es[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(es[c], es[best]) {
				best = c
			}
		}
		if !eventLess(es[best], ev) {
			break
		}
		es[i] = es[best]
		es[i].idx = i
		i = best
	}
	es[i] = ev
	ev.idx = i
}
