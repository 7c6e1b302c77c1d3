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
// free list is warm. Cancelled timers are removed lazily; when more than
// half the queue is dead the queue is compacted in one pass and the dead
// records are recycled immediately. A timer that is re-armed rather than
// cancelled moves in place (Reschedule) and leaves nothing dead behind.
// A FIFO of events (a link's packets in flight) is a Lane: it keeps its
// entries to itself and only its head in the queue (see DESIGN.md §12).
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Simulator owns the virtual clock and the pending event queue.
type Simulator struct {
	now           time.Duration
	seq           uint64
	epoch         uint64   // Resets so far; a Lane holding an older one is stale
	events        []*event // 4-ary min-heap ordered by (at, seq)
	dead          int      // cancelled entries still in the heap
	free          []*event // recycled event records
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
	s.dead = 0
	s.now = 0
	s.seq = 0
	s.stopRequested = false
	// Seed re-initialises the generator exactly as rand.NewSource(seed)
	// does, so a reset simulator draws the same sequence as a fresh one.
	s.rng.Seed(seed)
}

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// event is one scheduled callback. Records are recycled through the
// simulator's free list; gen increments on every recycle so stale Timers
// (handles to a fired or compacted-away event) can never cancel the
// record's next occupant.
type event struct {
	at  time.Duration
	seq uint64
	gen uint64
	idx int // position in Simulator.events while queued (Reschedule sifts from it)
	fn  func()
	// lane, when set, makes the record a Lane's entry in the queue instead
	// of a callback: its head (slot < 0) or one out-of-order push.
	lane laneRef
	slot int
}

// live reports whether the record still has something to run.
func (e *event) live() bool { return e.fn != nil || e.lane != nil }

// clear drops the callback so its captures become collectable immediately
// (not when the heap entry is eventually popped).
func (e *event) clear() {
	e.fn = nil
	e.lane = nil
}

// Timer is a handle to a scheduled event. The zero value is inert.
// Cancelling a fired or already cancelled timer is a no-op. Timer is a
// value type: holding or copying one never allocates.
type Timer struct {
	s   *Simulator
	ev  *event
	gen uint64
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.live()
}

// Stop cancels the timer. It reports whether the event had still been
// pending. The callback (and anything it captures) is released
// immediately; the dead heap entry is removed lazily or by compaction.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	t.ev.clear()
	t.s.dead++
	t.s.maybeCompact()
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
// its place, leaving no dead entry for the queue to carry and compact away;
// an inert one is scheduled afresh.
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
	if s.running {
		panic("sim: reentrant Run")
	}
	s.running = true
	s.stopRequested = false
	defer func() { s.running = false }()
	for len(s.events) > 0 {
		if s.stopRequested {
			return
		}
		ev := s.events[0]
		if !ev.live() { // cancelled
			s.pop()
			s.dead--
			s.release(ev)
			continue
		}
		if ev.at > deadline {
			if s.now < deadline {
				s.now = deadline
			}
			return
		}
		s.fire(ev)
	}
}

// Step executes the single next pending event, if any, and reports whether
// one ran. Useful in tests.
func (s *Simulator) Step() bool {
	for len(s.events) > 0 {
		ev := s.events[0]
		if !ev.live() {
			s.pop()
			s.dead--
			s.release(ev)
			continue
		}
		s.fire(ev)
		return true
	}
	return false
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
	s.pop()
	fn := ev.fn
	s.release(ev)
	fn()
}

// Pending returns the number of entries the queue holds, cancelled ones
// aside: one per scheduled event and one per non-empty Lane (plus one per
// out-of-order push), so it is zero exactly when nothing is left to run.
func (s *Simulator) Pending() int { return len(s.events) - s.dead }

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

// release returns a record to the free list. The generation bump
// invalidates every outstanding Timer pointing at the record.
func (s *Simulator) release(ev *event) {
	ev.clear()
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

// pop removes the root (minimum) entry. Callers read s.events[0] first.
func (s *Simulator) pop() {
	n := len(s.events) - 1
	last := s.events[n]
	s.events[n] = nil
	s.events = s.events[:n]
	if n > 0 {
		s.events[0] = last
		s.siftDown(0)
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

// --- Compaction of cancelled entries ------------------------------------

// compactMin is the queue size below which lazy deletion alone is fine.
const compactMin = 64

// maybeCompact rebuilds the queue without its dead entries when more
// than half of it is dead, recycling the dead records immediately. This
// bounds both the queue's memory and the stale event records a
// cancel-heavy workload (timer churn) would otherwise retain until pop.
func (s *Simulator) maybeCompact() {
	if len(s.events) < compactMin || s.dead*2 <= len(s.events) {
		return
	}
	live := s.events[:0]
	for _, ev := range s.events {
		if ev.live() {
			ev.idx = len(live)
			live = append(live, ev)
		} else {
			s.release(ev)
		}
	}
	for i := len(live); i < len(s.events); i++ {
		s.events[i] = nil
	}
	s.events = live
	s.dead = 0
	// Heapify bottom-up: sift down every internal node.
	if n := len(live); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			s.siftDown(i)
		}
	}
}

// queueLen reports the raw heap length including dead entries (tests).
func (s *Simulator) queueLen() int { return len(s.events) }
