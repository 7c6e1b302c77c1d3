// Streaming result aggregation for the matrix engine. Each finished cell
// posts one small completion message on a bounded channel; a sequencer
// goroutine re-establishes registration order incrementally and spools
// the cell's ledger records to disk, so the engine's peak result-buffer
// memory is O(workers + reorder skew) regardless of sweep size — held
// for the whole run, O(cells) would be untenable for million-cell
// sweeps. The spools preserve the ledger's all-cells-then-all-timings
// block layout and are ledgers themselves, so their bytes are a ledger's.
package core

import (
	"time"

	"quiclab/internal/obs"
)

// doneCell is one cell's completion message to the sequencer: its
// registration index, its deterministic ledger record (nil when the cell
// surfaced no Result to the engine), and the host-clock provenance that
// feeds the ledger's timing section.
type doneCell struct {
	idx      int
	rec      *obs.CellRecord
	wall     time.Duration
	resumed  bool
	attempts int
}

// sequencer drains completion messages and emits each owned cell's
// ledger records in registration order, holding back only the cells
// that finished ahead of a still-running earlier cell. The channel is
// bounded, so workers exert backpressure instead of queueing unbounded
// results; in the steady state the pending map holds at most the
// completion skew between the fastest and slowest in-flight cells.
type sequencer struct {
	m       *Matrix
	owned   []int
	ch      chan doneCell
	done    chan struct{}
	cells   *obs.Spool
	timings *obs.Spool
	peak    int // widest the reorder window got; read after finish
}

// newSequencer starts the draining goroutine. Call finish after every
// worker has exited, then flush the spools (or discard on interrupt).
func (m *Matrix) newSequencer(owned []int, workers int) *sequencer {
	depth := 2 * workers
	if depth < 2 {
		depth = 2
	}
	s := &sequencer{
		m:       m,
		owned:   owned,
		ch:      make(chan doneCell, depth),
		done:    make(chan struct{}),
		cells:   obs.NewSpool("quiclab-cells-*.jsonl"),
		timings: obs.NewSpool("quiclab-timings-*.jsonl"),
	}
	go s.run()
	return s
}

func (s *sequencer) run() {
	defer close(s.done)
	pending := make(map[int]doneCell, cap(s.ch))
	next := 0 // position in owned of the next cell to emit
	for dc := range s.ch {
		pending[dc.idx] = dc
		if len(pending) > s.peak {
			s.peak = len(pending)
		}
		for next < len(s.owned) {
			d, ok := pending[s.owned[next]]
			if !ok {
				break
			}
			delete(pending, d.idx)
			s.emit(d)
			next++
		}
	}
	// On interrupt some owned cells never complete; whatever is still
	// pending stays unemitted — the interrupted run writes no ledger
	// block, so the spools are discarded anyway.
}

// emit writes one cell's records to the spools and drops the message —
// after this, the sweep holds no per-cell state.
func (s *sequencer) emit(d doneCell) {
	m := s.m
	c := m.cells[d.idx].cell
	rec := d.rec
	if rec == nil {
		// The cell's experiment never surfaced a Result to the engine:
		// record identity and seed so the run is still accounted for.
		rec = m.cellRecord(c, c.Seed(m.o.Seed), obs.OutcomeUnobserved)
	}
	s.cells.AppendCell(*rec)
	tr := obs.TimingRecord{
		CellID:  c.id(),
		WallMS:  float64(d.wall) / float64(time.Millisecond),
		Resumed: d.resumed,
	}
	if d.attempts > 1 {
		tr.Attempts = d.attempts
	}
	s.timings.AppendTiming(tr)
}

// finish closes the completion channel and waits for the drain to
// settle. Only call after every producer (worker) has exited.
func (s *sequencer) finish() {
	close(s.ch)
	<-s.done
}

// discard releases the spools without writing them anywhere.
func (s *sequencer) discard() {
	s.cells.Close()
	s.timings.Close()
}

// spoolErr reports the first spool write failure, if any.
func (s *sequencer) spoolErr() error {
	if err := s.cells.Err(); err != nil {
		return err
	}
	return s.timings.Err()
}
