package metrics

import (
	"testing"
	"time"
)

// BenchmarkRecordDisabled is the disabled-path alloc guard: recording
// into a nil series (metrics off — the default for every transfer) must
// cost one branch and zero allocations (held by TestRecordAllocFree).
func BenchmarkRecordDisabled(b *testing.B) {
	var s *Series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(time.Duration(i), float64(i))
	}
}

// BenchmarkRecordEnabled is the enabled-path guard: steady-state
// recording must be amortized O(1) with zero allocations per op — the
// ring is allocated once at registration and downsampling reuses it in
// place (held by TestRecordAllocFree).
func BenchmarkRecordEnabled(b *testing.B) {
	c := New(time.Millisecond, DefaultCapacity)
	s := c.Series("bench", KindBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(time.Duration(i)*time.Millisecond, float64(i))
	}
}

// TestRecordAllocFree pins both paths with testing.AllocsPerRun so the
// guarantee is part of plain `go test`.
func TestRecordAllocFree(t *testing.T) {
	var nilSeries *Series
	if n := testing.AllocsPerRun(1000, func() {
		nilSeries.Record(time.Millisecond, 1)
	}); n != 0 {
		t.Fatalf("disabled Record allocates %v allocs/op, want 0", n)
	}

	c := New(time.Millisecond, DefaultCapacity)
	s := c.Series("guard", KindBytes)
	var i int
	if n := testing.AllocsPerRun(10000, func() {
		i++
		s.Record(time.Duration(i)*time.Millisecond, float64(i))
	}); n != 0 {
		t.Fatalf("enabled Record allocates %v allocs/op steady-state, want 0", n)
	}
}
