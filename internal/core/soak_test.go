package core

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"quiclab/internal/obs"
)

// The constant-memory soak gate: a synthetic sweep of 10^5 cells
// through the full crash-tolerant harness (per-cell timeout goroutines,
// checkpoint-style resumable cells, streaming ledger aggregation) must
// complete inside a fixed RSS ceiling: the result path is O(workers +
// reorder skew) — each cell's record, wall time and retry provenance
// live only in its completion message — so the ceiling holds at any cell
// count.
//
// Run via `make soak` (QUICLAB_SOAK=1): too slow for the default suite.
func TestSoakConstantMemory(t *testing.T) {
	if os.Getenv("QUICLAB_SOAK") == "" {
		t.Skip("set QUICLAB_SOAK=1 (make soak) to run the constant-memory sweep")
	}
	const (
		cells      = 100_000
		ceilingMB  = 512 // peak RSS, all-in: runtime, test binary, registration
		heapCeilMB = 256 // sampled live heap during the sweep
	)
	ledger := obs.NewLedger(io.Discard)
	var (
		peakHeap uint64
		sampled  int
	)
	o := Options{
		Seed:        1,
		Rounds:      1,
		Parallelism: 4,
		CellTimeout: 30 * time.Second,
		Ledger:      ledger,
		Progress: func(ct CellTiming) {
			if ct.Completed%2000 != 0 {
				return
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
			sampled++
		},
	}
	m := NewMatrix("soak", o)
	addSoakCells(m, cells)
	stats := m.Run()
	maxWin := m.reorderPeak
	if stats.Cells != cells || stats.Interrupted {
		t.Fatalf("sweep did not complete: %+v", stats)
	}
	if err := ledger.Err(); err != nil {
		t.Fatalf("ledger error: %v", err)
	}
	if stats.LedgerErr != nil {
		t.Fatalf("ledger/spool error: %v", stats.LedgerErr)
	}
	if sampled == 0 {
		t.Fatal("no heap samples taken — the ceiling assertion is vacuous")
	}
	t.Logf("%d cells in %v (%d workers), peak sampled heap %.1f MB, widest reorder window %d",
		cells, stats.Wall.Round(time.Millisecond), stats.Workers, float64(peakHeap)/1e6, maxWin)
	if maxWin > cells/100 {
		t.Errorf("sequencer reorder window reached %d of %d cells — aggregation is not streaming", maxWin, cells)
	}
	if mb := float64(peakHeap) / 1e6; mb > heapCeilMB {
		t.Errorf("peak sampled heap %.1f MB exceeds %d MB ceiling", mb, heapCeilMB)
	}
	if rss := peakRSSMB(); rss > 0 {
		t.Logf("peak RSS (VmHWM) %d MB", rss)
		if rss > ceilingMB {
			t.Errorf("peak RSS %d MB exceeds %d MB ceiling", rss, ceilingMB)
		}
	}
}

// peakRSSMB reads the process's high-water RSS from /proc (Linux);
// 0 when unavailable.
func peakRSSMB() int {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// addSoakCells registers n synthetic cells: the sweep exercises the
// harness, not the transports. The value travels through the engine's
// store/aggregation machinery like a real one. Each cell takes the
// shortest host time a sleep can (tens of microseconds): with cells that
// take none, one descheduled worker lets its peers finish the sweep and
// the reorder window measures scheduling luck, not the engine.
func addSoakCells(m *Matrix, n int) {
	outs := make([]pltPayload, n)
	for i := range outs {
		sci := m.NextScenario()
		AddCell(m, Cell{Scenario: sci, Proto: QUIC}, &outs[i], func(seed int64) pltPayload {
			time.Sleep(time.Microsecond)
			return pltPayload{PLTNS: seed % 1e6, Completed: true}
		})
	}
}

// TestSequencerWindowIsReorderSkew pins what the soak gates bound: the
// sequencer holds exactly the completions that arrived ahead of a
// still-missing earlier cell, and emits in registration order whatever
// order they arrive in.
func TestSequencerWindowIsReorderSkew(t *testing.T) {
	const cells, skew = 60, 5
	var ledger bytes.Buffer
	l := obs.NewLedger(&ledger)
	m := NewMatrix("skew", Options{Seed: 1, Rounds: 1, Ledger: l})
	addSoakCells(m, cells)
	seq := m.newSequencer(m.ownedIndices(), 1)
	for base := 0; base < cells; base += skew { // each block arrives last cell first
		for i := base + skew - 1; i >= base; i-- {
			seq.ch <- doneCell{idx: i}
		}
	}
	seq.finish()
	if seq.peak != skew {
		t.Errorf("reorder window peaked at %d, want the skew %d", seq.peak, skew)
	}
	m.flushLedger(MatrixStats{}, seq)
	seq.discard()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := obs.ReadLedger(&ledger)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, e := range entries {
		if e.Cell == nil {
			continue
		}
		if e.Cell.Scenario != next || e.Cell.Outcome != obs.OutcomeUnobserved {
			t.Fatalf("cell record %d is scenario %d (%s), want registration order, unobserved",
				next, e.Cell.Scenario, e.Cell.Outcome)
		}
		next++
	}
	if next != cells {
		t.Fatalf("ledger holds %d cell records, want %d", next, cells)
	}
}

// TestSoakSmoke is the always-on miniature of the soak sweep (1000
// cells): it proves the synthetic harness itself works so a broken
// `make soak` cannot sit unnoticed until someone runs it.
func TestSoakSmoke(t *testing.T) {
	m := NewMatrix("soaksmoke", Options{
		Seed: 1, Rounds: 1, Parallelism: 2,
		CellTimeout: 30 * time.Second, Ledger: obs.NewLedger(io.Discard),
	})
	const cells = 1000
	addSoakCells(m, cells)
	stats := m.Run()
	if stats.Cells != cells || stats.Interrupted || stats.LedgerErr != nil {
		t.Fatalf("smoke sweep failed: %+v", stats)
	}
	// The sequencer's reorder window — the engine's only per-cell live
	// state — must stay bounded by the in-flight cells, never approach
	// the sweep size.
	if m.reorderPeak == 0 || m.reorderPeak > cells/10 {
		t.Errorf("sequencer reorder window peaked at %d of %d cells — aggregation is not streaming", m.reorderPeak, cells)
	}
}
