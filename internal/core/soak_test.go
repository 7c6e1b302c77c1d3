package core

import (
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"quiclab/internal/obs"
)

// The bounded-memory soak gate: a synthetic sweep of 10^5 cells through
// the full crash-tolerant harness (panic-contained, checkpoint-style
// resumable cells, a run ledger) must complete inside a
// fixed heap and RSS ceiling. The ledger's records wait in a per-cell
// slice until the block is written, so memory grows with the sweep: a
// 24-byte slot a cell, plus the record of each cell that surfaced a
// Result. 10^5 cells are nearly forty times the largest sweep the
// registry runs (fig8 at paper scale, 2 640 cells).
//
// Run via `make soak` (QUICLAB_SOAK=1): too slow for the default suite.
func TestSoakMemoryCeiling(t *testing.T) {
	if os.Getenv("QUICLAB_SOAK") == "" {
		t.Skip("set QUICLAB_SOAK=1 (make soak) to run the bounded-memory sweep")
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
	if stats.Cells != cells || stats.Interrupted {
		t.Fatalf("sweep did not complete: %+v", stats)
	}
	if err := ledger.Err(); err != nil {
		t.Fatalf("ledger error: %v", err)
	}
	if stats.LedgerErr != nil {
		t.Fatalf("ledger error: %v", stats.LedgerErr)
	}
	if sampled == 0 {
		t.Fatal("no heap samples taken — the ceiling assertion is vacuous")
	}
	t.Logf("%d cells in %v (%d workers), peak sampled heap %.1f MB",
		cells, stats.Wall.Round(time.Millisecond), stats.Workers, float64(peakHeap)/1e6)
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
// shortest host time a sleep can (tens of microseconds), so the workers
// interleave as they do over real cells.
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

// TestSoakSmoke is the always-on miniature of the soak sweep (1000
// cells): it proves the synthetic harness itself works so a broken
// `make soak` cannot sit unnoticed until someone runs it.
func TestSoakSmoke(t *testing.T) {
	m := NewMatrix("soaksmoke", Options{
		Seed: 1, Rounds: 1, Parallelism: 2, Ledger: obs.NewLedger(io.Discard),
	})
	const cells = 1000
	addSoakCells(m, cells)
	stats := m.Run()
	if stats.Cells != cells || stats.Interrupted || stats.LedgerErr != nil {
		t.Fatalf("smoke sweep failed: %+v", stats)
	}
}
