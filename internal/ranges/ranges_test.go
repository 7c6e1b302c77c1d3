package ranges

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddMergeAdjacent(t *testing.T) {
	var s Set
	s.Add(0, 5)
	s.Add(5, 10)
	if s.NumRanges() != 1 || !s.ContainsRange(0, 10) {
		t.Fatalf("adjacent ranges should merge: %v", s.String())
	}
}

func TestAddMergeOverlapping(t *testing.T) {
	var s Set
	s.Add(0, 5)
	s.Add(8, 12)
	s.Add(3, 9)
	if s.NumRanges() != 1 || !s.ContainsRange(0, 12) {
		t.Fatalf("overlap should merge all: %v", s.String())
	}
}

func TestAddDisjoint(t *testing.T) {
	var s Set
	s.Add(10, 20)
	s.Add(0, 5)
	s.Add(30, 40)
	if s.NumRanges() != 3 {
		t.Fatalf("want 3 ranges, got %v", s.String())
	}
	if s.Contains(5) || s.Contains(25) || !s.Contains(10) || !s.Contains(39) || s.Contains(40) {
		t.Fatalf("containment wrong: %v", s.String())
	}
}

func TestAddReportsChange(t *testing.T) {
	var s Set
	if !s.Add(0, 10) {
		t.Fatal("first add should change")
	}
	if s.Add(2, 8) {
		t.Fatal("contained add should not change")
	}
	if !s.Add(5, 15) {
		t.Fatal("extending add should change")
	}
	if s.Add(7, 7) {
		t.Fatal("empty add should not change")
	}
}

func TestContiguousEnd(t *testing.T) {
	var s Set
	s.Add(0, 100)
	s.Add(150, 200)
	if got := s.ContiguousEnd(0); got != 100 {
		t.Fatalf("ContiguousEnd(0) = %d, want 100", got)
	}
	if got := s.ContiguousEnd(100); got != 100 {
		t.Fatalf("ContiguousEnd(100) = %d, want 100 (gap)", got)
	}
	if got := s.ContiguousEnd(150); got != 200 {
		t.Fatalf("ContiguousEnd(150) = %d, want 200", got)
	}
	s.Add(100, 150)
	if got := s.ContiguousEnd(0); got != 200 {
		t.Fatalf("after fill, ContiguousEnd(0) = %d, want 200", got)
	}
}

func TestRemoveBelow(t *testing.T) {
	var s Set
	s.Add(0, 10)
	s.Add(20, 30)
	s.RemoveBelow(25)
	if s.Contains(9) || s.Contains(24) || !s.Contains(25) {
		t.Fatalf("RemoveBelow wrong: %v", s.String())
	}
	if s.Covered() != 5 {
		t.Fatalf("covered = %d, want 5", s.Covered())
	}
}

func TestAbove(t *testing.T) {
	var s Set
	s.Add(0, 10)
	s.Add(20, 30)
	s.Add(40, 50)
	above := s.Above(25)
	if len(above) != 2 || above[0] != (Range{25, 30}) || above[1] != (Range{40, 50}) {
		t.Fatalf("Above(25) = %v", above)
	}
}

func TestAppendLast(t *testing.T) {
	var full Set
	full.Add(0, 10)
	full.Add(20, 30)
	full.Add(40, 50)
	all := full.Ranges()
	prefix := []Range{{100, 101}} // appended to, never overwritten
	for _, tc := range []struct {
		name string
		s    Set
		n    int
		want []Range
	}{
		{"empty set", Set{}, 3, nil},
		{"n = 0", full, 0, nil},
		{"n < len", full, 2, all[1:]},
		{"n = len", full, 3, all},
		{"n > len", full, 40, all},
	} {
		got := tc.s.AppendLast(slices.Clone(prefix), tc.n)
		if want := append(slices.Clone(prefix), tc.want...); !slices.Equal(got, want) {
			t.Errorf("%s: AppendLast(%v, %d) = %v, want %v", tc.name, prefix, tc.n, got, want)
		}
	}
}

// Property: a Set behaves exactly like a reference bitmap under random
// adds.
func TestPropertyMatchesBitmap(t *testing.T) {
	f := func(seed int64, nops uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var s Set
		ref := make([]bool, 300)
		for op := 0; op < int(nops); op++ {
			a := uint64(r.Intn(280))
			b := a + uint64(r.Intn(20))
			changed := s.Add(a, b)
			refChanged := false
			for v := a; v < b; v++ {
				if !ref[v] {
					ref[v] = true
					refChanged = true
				}
			}
			if changed != refChanged {
				return false
			}
		}
		// Compare coverage, contiguity, counts.
		var covered uint64
		for v := uint64(0); v < 300; v++ {
			if ref[v] != s.Contains(v) {
				return false
			}
			if ref[v] {
				covered++
			}
		}
		if covered != s.Covered() {
			return false
		}
		// Ranges must be sorted, disjoint, non-adjacent.
		rs := s.Ranges()
		for i, rg := range rs {
			if rg.Start >= rg.End {
				return false
			}
			if i > 0 && rs[i-1].End >= rg.Start {
				return false
			}
		}
		// ContiguousEnd agrees with the bitmap.
		for _, probe := range []uint64{0, 50, 100, 299} {
			end := probe
			for end < 300 && ref[end] {
				end++
			}
			want := end
			if !ref[probe] {
				want = probe
			}
			if got := s.ContiguousEnd(probe); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if s.Contains(0) || s.Covered() != 0 || s.NumRanges() != 0 {
		t.Fatal("empty set misbehaves")
	}
	if s.ContiguousEnd(5) != 5 {
		t.Fatal("ContiguousEnd on empty should echo input")
	}
	if s.String() != "" {
		t.Fatal("empty string render")
	}
	s.RemoveBelow(100) // must not panic
	if s.Above(0) != nil {
		t.Fatal("Above on empty should be nil")
	}
	if !s.ContainsRange(5, 5) {
		t.Fatal("empty range is vacuously contained")
	}
}
