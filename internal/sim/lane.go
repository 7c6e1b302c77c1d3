package sim

import "time"

// Lane is a FIFO of events that share one callback — a link's packets in
// flight. Its owner pushes in non-decreasing time, so the queue only ever
// needs the lane's head: a non-empty lane holds one queue entry, re-keyed
// in place as the head fires, however many entries wait behind it. Every
// push draws its sequence number exactly as Schedule does and a push due
// before the lane's tail is queued on its own, so a run fires event for
// event what scheduling each entry separately fires. Entries cannot be
// cancelled. Simulator.Reset empties the lane.
type Lane[T any] struct {
	s     *Simulator
	fn    func(T)
	epoch uint64        // the Simulator epoch the contents belong to
	ring  []laneItem[T] // circular, a power of two long, sorted by (at, seq)
	head  int
	n     int
	// Out-of-order pushes park their value here, at the slot their queue
	// entry names, so the entry carries it without boxing.
	strays    []T
	freeSlots []int
}

type laneItem[T any] struct {
	at  time.Duration
	seq uint64
	v   T
}

// laneRef is a Lane[T] as the queue sees it.
type laneRef interface{ fire(ev *event) }

// NewLane returns an empty lane on s whose entries run fn.
func NewLane[T any](s *Simulator, fn func(T)) *Lane[T] {
	return &Lane[T]{s: s, fn: fn, epoch: s.epoch}
}

// Len returns the number of entries pushed and not yet fired.
func (l *Lane[T]) Len() int {
	if l.epoch != l.s.epoch {
		return 0
	}
	return l.n + len(l.strays) - len(l.freeSlots)
}

// PushAt runs fn(v) at absolute virtual time t, clamped to now.
func (l *Lane[T]) PushAt(t time.Duration, v T) {
	s := l.s
	if l.epoch != s.epoch { // the simulator was Reset under the old entries
		l.epoch = s.epoch
		clear(l.ring)
		clear(l.strays)
		l.head, l.n, l.strays, l.freeSlots = 0, 0, l.strays[:0], l.freeSlots[:0]
	}
	if t < s.now {
		t = s.now
	}
	seq := s.seq
	s.seq++
	if l.n > 0 && t < l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at {
		slot := len(l.strays)
		if k := len(l.freeSlots); k > 0 {
			slot, l.freeSlots = l.freeSlots[k-1], l.freeSlots[:k-1]
			l.strays[slot] = v
		} else {
			l.strays = append(l.strays, v)
		}
		l.enqueue(t, seq, slot)
		return
	}
	if l.n == len(l.ring) {
		ring := make([]laneItem[T], max(16, 2*l.n))
		k := copy(ring, l.ring[l.head:])
		copy(ring[k:], l.ring[:l.head])
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneItem[T]{t, seq, v}
	if l.n++; l.n == 1 {
		l.enqueue(t, seq, -1)
	}
}

func (l *Lane[T]) enqueue(at time.Duration, seq uint64, slot int) {
	ev := l.s.alloc()
	ev.at, ev.seq, ev.lane, ev.slot = at, seq, l, slot
	l.s.push(ev)
}

// fire runs the lane's entry ev, the queue's root.
func (l *Lane[T]) fire(ev *event) {
	s := l.s
	var v, zero T
	if slot := ev.slot; slot >= 0 {
		v, l.strays[slot] = l.strays[slot], zero
		l.freeSlots = append(l.freeSlots, slot)
		s.remove(ev)
		s.release(ev)
	} else {
		it := &l.ring[l.head]
		v, it.v = it.v, zero
		l.head = (l.head + 1) & (len(l.ring) - 1)
		if l.n--; l.n > 0 {
			next := &l.ring[l.head]
			ev.at, ev.seq = next.at, next.seq
			s.siftDown(0)
		} else {
			s.remove(ev)
			s.release(ev)
		}
	}
	l.fn(v)
}
