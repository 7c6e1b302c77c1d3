package obs

import (
	"io"
	"testing"
)

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
