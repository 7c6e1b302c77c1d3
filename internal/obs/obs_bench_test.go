package obs

import (
	"io"
	"testing"
	"time"
)

// BenchmarkTelemetryDisabled pins the cost of the engine's telemetry
// hooks when telemetry is off (nil panel) — the default for every
// sweep. TestTelemetryDisabledAllocFree holds the 0 allocs/op.
func BenchmarkTelemetryDisabled(b *testing.B) {
	var tel *Telemetry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tel.WorkerRunning(+1)
		tel.CellDone(time.Millisecond)
		tel.WorkerRunning(-1)
	}
}

// BenchmarkTelemetryEnabled pins the enabled per-cell hook cost:
// a handful of atomics, no allocations.
func BenchmarkTelemetryEnabled(b *testing.B) {
	tel := NewTelemetry()
	tel.SweepStarted("bench", 1<<30, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tel.WorkerRunning(+1)
		tel.CellDone(time.Millisecond)
		tel.WorkerRunning(-1)
	}
}

// BenchmarkLedgerAppend pins the per-cell ledger write: one JSON
// marshal into a buffered writer. The benchmark's sweep workload
// (allocs and KiB per cell, with a ledger on) is where growth shows.
func BenchmarkLedgerAppend(b *testing.B) {
	l := NewLedger(io.Discard)
	rec := CellRecord{
		Experiment: "fig2", CellID: CellID{Scenario: 3, Round: 7, Proto: "quic", Arm: 1},
		Seed: 123456789, Outcome: OutcomeCompleted, PLTSeconds: 2.345,
		Bundle: "out/fig2/s3/r7-1-QUIC",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.AppendCell(rec); err != nil {
			b.Fatal(err)
		}
	}
}
