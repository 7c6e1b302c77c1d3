// Package ranges implements a set of non-overlapping half-open intervals
// [start, end) over uint64. Both transports use it: the QUIC stream
// receiver tracks received offset ranges, the TCP receiver tracks its
// out-of-order queue and generates SACK blocks from it.
package ranges

import (
	"fmt"
	"sort"
	"strings"
)

// Range is a half-open interval [Start, End).
type Range struct {
	Start, End uint64
}

// Len returns the number of values covered.
func (r Range) Len() uint64 { return r.End - r.Start }

// Set is an ordered set of disjoint, non-adjacent ranges. The zero value
// is an empty set ready to use.
type Set struct {
	rs []Range // sorted by Start, disjoint, non-adjacent
}

// Add inserts [start, end), merging with any overlapping or adjacent
// ranges. Empty input (start >= end) is ignored. It reports whether the
// set changed (i.e. some part of the input was new).
func (s *Set) Add(start, end uint64) bool {
	if start >= end {
		return false
	}
	if s.rs == nil {
		// Both transports hold a Set per connection; start with room for
		// a typical out-of-order window instead of growing 1->2->4->8.
		s.rs = make([]Range, 1, 8)
		s.rs[0] = Range{start, end}
		return true
	}
	// Find first range with End >= start (candidate for merge).
	i := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End >= start })
	if i == len(s.rs) {
		s.rs = append(s.rs, Range{start, end})
		return true
	}
	// Check if fully contained (no change).
	if s.rs[i].Start <= start && end <= s.rs[i].End {
		return false
	}
	// Merge [start,end) with ranges i..j-1 that it touches.
	j := i
	newStart, newEnd := start, end
	for j < len(s.rs) && s.rs[j].Start <= end {
		if s.rs[j].Start < newStart {
			newStart = s.rs[j].Start
		}
		if s.rs[j].End > newEnd {
			newEnd = s.rs[j].End
		}
		j++
	}
	if i == j {
		// No overlap: insert at i.
		s.rs = append(s.rs, Range{})
		copy(s.rs[i+1:], s.rs[i:])
		s.rs[i] = Range{start, end}
		return true
	}
	s.rs[i] = Range{newStart, newEnd}
	s.rs = append(s.rs[:i+1], s.rs[j:]...)
	return true
}

// Clear empties the set, keeping the underlying storage for reuse. A
// cleared set behaves exactly like a zero one (the first Add appends).
func (s *Set) Clear() {
	if s.rs != nil {
		s.rs = s.rs[:0]
	}
}

// Contains reports whether v is covered.
func (s *Set) Contains(v uint64) bool {
	i := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End > v })
	return i < len(s.rs) && s.rs[i].Start <= v
}

// ContainsRange reports whether all of [start, end) is covered.
func (s *Set) ContainsRange(start, end uint64) bool {
	if start >= end {
		return true
	}
	i := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End > start })
	return i < len(s.rs) && s.rs[i].Start <= start && end <= s.rs[i].End
}

// ContiguousEnd returns the end of the contiguous run starting at from,
// or from itself if from is not covered. For a receiver tracking stream
// data from offset 0, ContiguousEnd(0) is the in-order prefix length.
func (s *Set) ContiguousEnd(from uint64) uint64 {
	i := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End > from })
	if i < len(s.rs) && s.rs[i].Start <= from {
		return s.rs[i].End
	}
	return from
}

// RemoveBelow drops all coverage below v (used to garbage-collect
// delivered data). Survivors are compacted to the front of the backing
// array so the slice keeps its capacity — reslicing from the front
// (s.rs = s.rs[i:]) would strand it and force later Adds to reallocate.
func (s *Set) RemoveBelow(v uint64) {
	i := 0
	for i < len(s.rs) && s.rs[i].End <= v {
		i++
	}
	if i > 0 {
		n := copy(s.rs, s.rs[i:])
		s.rs = s.rs[:n]
	}
	if len(s.rs) > 0 && s.rs[0].Start < v {
		s.rs[0].Start = v
	}
}

// Ranges returns a copy of the ranges in ascending order.
func (s *Set) Ranges() []Range {
	return append(make([]Range, 0, len(s.rs)), s.rs...)
}

// AppendLast appends the highest n ranges (all of them when the set holds
// no more than n) to dst in ascending order and returns the extended
// slice. With a reused scratch buffer it does not allocate in steady
// state, and a set that only grows costs a reader what it reads: the QUIC
// ack builder copies the ranges one frame carries, not the whole history.
func (s *Set) AppendLast(dst []Range, n int) []Range {
	return append(dst, s.rs[len(s.rs)-min(n, len(s.rs)):]...)
}

// Last returns the highest range, if any. Alloc-free accessor for
// callers that only need the top of the set (TCP's FACK loss detection).
func (s *Set) Last() (Range, bool) {
	if len(s.rs) == 0 {
		return Range{}, false
	}
	return s.rs[len(s.rs)-1], true
}

// Above returns the ranges strictly above v (clipped), ascending — this
// is what a TCP receiver reports as SACK blocks above the cumulative ack.
func (s *Set) Above(v uint64) []Range {
	return s.AppendAbove(nil, v)
}

// AppendAbove appends the ranges strictly above v (clipped) to dst and
// returns the extended slice; the alloc-free form of Above for reused
// scratch buffers (the TCP ack builder).
func (s *Set) AppendAbove(dst []Range, v uint64) []Range {
	for _, r := range s.rs {
		if r.End <= v {
			continue
		}
		if r.Start < v {
			r.Start = v
		}
		dst = append(dst, r)
	}
	return dst
}

// Covered returns the total number of values covered.
func (s *Set) Covered() uint64 {
	var n uint64
	for _, r := range s.rs {
		n += r.Len()
	}
	return n
}

// NumRanges returns the number of disjoint ranges.
func (s *Set) NumRanges() int { return len(s.rs) }

// String renders like "[0,5) [8,10)".
func (s *Set) String() string {
	var b strings.Builder
	for i, r := range s.rs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "[%d,%d)", r.Start, r.End)
	}
	return b.String()
}
