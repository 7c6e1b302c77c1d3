package sim

import (
	"testing"
	"time"
)

// BenchmarkSchedule is the steady-state scheduler cost: one Schedule +
// one fire against a warm free list, the pattern every simulated packet
// pays several times over. TestScheduleFireZeroAlloc holds the 0 allocs/op.
func BenchmarkSchedule(b *testing.B) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 256; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Microsecond, fn)
		if i%64 == 63 {
			s.RunUntil(s.Now() + time.Millisecond)
		}
	}
	s.Run()
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		s.Run()
	}
}

func BenchmarkTimerChurn(b *testing.B) {
	// The transports constantly arm and cancel loss timers; this is the
	// pattern's cost.
	s := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Hour, func() {}).Stop()
	}
}
