// Crash tolerance for the matrix engine: per-cell checkpointing and
// restore (skip completed cells on resume), contained worker panics, and
// per-cell timeouts. A failed cell is not retried: it is a deterministic
// function of its seed, so a panic recurs and a hung cell hangs again.
//
// The invariant everything here serves: a sweep that is killed at an
// arbitrary point and resumed produces byte-identical rendered output,
// bundle trees, and ledger deterministic sections to a sweep that ran
// uninterrupted. A restored cell's slot holds the value its original run
// returned and its ledger record is the one that run produced; unfinished
// cells re-run under the same derived seeds.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"quiclab/internal/obs"
)

// resumeEntry is one checkpointed cell a resuming run may restore.
// persisted marks entries salvaged from this run's own checkpoint file
// (already on disk); entries from a foreign ResumeFrom are re-appended
// to the writing checkpoint on restore so it stays self-contained.
type resumeEntry struct {
	obs.CheckpointCell
	persisted bool
}

// setupCheckpoint opens the writing checkpoint (Options.CheckpointDir)
// and loads restorable cells (Options.ResumeFrom), the writing
// checkpoint's own first. Checkpoint failures are recorded in
// stats.CheckpointErr but never abort the sweep — a run without
// durability beats no run. Returns nil when nothing can be restored.
func (m *Matrix) setupCheckpoint(stats *MatrixStats) map[obs.CellID]resumeEntry {
	if m.o.CheckpointDir == "" && m.o.ResumeFrom == "" {
		return nil
	}
	h := obs.CheckpointHeader{SweepIdentity: m.identity(), Shard: stats.Shard}
	var found []resumeEntry
	add := func(cells []obs.CheckpointCell, persisted bool) {
		for _, cc := range cells {
			found = append(found, resumeEntry{cc, persisted})
		}
	}
	var ownPath string
	if m.o.CheckpointDir != "" {
		if err := os.MkdirAll(m.o.CheckpointDir, 0o755); err != nil {
			stats.CheckpointErr = err
		} else {
			ownPath = filepath.Join(m.o.CheckpointDir, m.experiment+obs.CheckpointExt)
			ck, salvaged, err := obs.OpenCheckpoint(ownPath, h)
			if err != nil {
				stats.CheckpointErr = err
			} else {
				m.ck = ck
				add(salvaged, true)
			}
		}
	}
	if m.o.ResumeFrom != "" {
		path := m.o.ResumeFrom
		if filepath.Ext(path) != obs.CheckpointExt {
			path = filepath.Join(path, m.experiment+obs.CheckpointExt)
		}
		if path != ownPath {
			hdr, cells, _, err := obs.ReadCheckpointFile(path)
			switch {
			case err != nil:
				if stats.CheckpointErr == nil {
					stats.CheckpointErr = err
				}
			case hdr == nil || hdr.Key() != h.Key():
				if stats.CheckpointErr == nil {
					stats.CheckpointErr = fmt.Errorf(
						"resume-from %s: checkpoint is for a different sweep config", path)
				}
			default:
				add(cells, false)
			}
		}
	}
	if len(found) == 0 {
		return nil
	}
	restored := make(map[obs.CellID]resumeEntry, len(found))
	for _, ent := range obs.FirstPerCell(found) {
		restored[ent.CellID] = ent
	}
	return restored
}

// tryRestore stores one checkpointed cell's value into the experiment's
// slot instead of re-running it, after checking the cell's seed, its
// bundle (when this run writes bundles and the cell surfaced a Result)
// and the payload's shape. Every failure mode returns false — the cell
// simply re-runs — so a stale seed, missing bundle or unacceptable payload
// can never poison a resumed run. On success it returns the checkpointed
// ledger record (bundle path rewritten for this run's BundleDir; nil for
// a cell that surfaced no Result, which the ledger flush records as
// unobserved exactly as it does after a fresh run), and foreign entries
// are re-appended to the writing checkpoint.
func (m *Matrix) tryRestore(c matrixCell, seed int64, ent resumeEntry) (*obs.CellRecord, bool) {
	if ent.Seed != seed || len(ent.Payload) == 0 {
		return nil, false
	}
	var rec *obs.CellRecord
	if ent.Record != nil {
		r := *ent.Record
		r.Bundle = ""
		if m.o.BundleDir != "" {
			// The restored run must present the same bundle tree as an
			// uninterrupted one: accept the skip only if the cell's bundle
			// exists and parses (a torn bundle from the killed run re-runs).
			r.Bundle = CellDir(m.o.BundleDir, c.cell)
			if _, err := ReadBundleSummary(r.Bundle); err != nil {
				return nil, false
			}
		}
		rec = &r
	}
	if c.body.restore(ent.Payload) != nil {
		return nil, false
	}
	if !ent.persisted && m.ck != nil {
		if err := m.ck.AppendCheckpointCell(ent.CheckpointCell); err != nil {
			m.noteCheckpointErr(err)
		}
	}
	return rec, true
}

// cellFailure classifies a terminal harness failure of one cell.
type cellFailure struct {
	reason FailureReason // FailCellPanic or FailCellTimeout
	detail string
	stack  string // captured goroutine stack (panics only)
}

// outcome is what one execution of a cell produced: its value and the
// ledger record of the Result it surfaced (nil when it surfaced none or
// no sink wants one), or the failure that ended it.
type outcome struct {
	value any
	rec   *obs.CellRecord
	fail  *cellFailure
}

// runAttempt executes the cell once, bounded by Options.CellTimeout when
// positive. A timed-out attempt's goroutine is abandoned (documented in
// Options.CellTimeout); whatever it eventually returns lands in a
// buffered channel nobody reads.
func (m *Matrix) runAttempt(c matrixCell, seed int64, tp *tbPool) outcome {
	if m.o.CellTimeout <= 0 {
		return m.runProtected(c, seed, tp)
	}
	ch := make(chan outcome, 1)
	go func() {
		// The abandoned goroutine shares the worker's pool: tbPool is
		// mutexed precisely so a late release from a timed-out attempt
		// cannot race the worker's next cell.
		ch <- m.runProtected(c, seed, tp)
	}()
	t := time.NewTimer(m.o.CellTimeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out
	case <-t.C:
		return outcome{fail: &cellFailure{
			reason: FailCellTimeout,
			detail: fmt.Sprintf("cell exceeded CellTimeout %v", m.o.CellTimeout),
		}}
	}
}

// runProtected executes the cell body, and the observation of the Result
// it surfaces, behind a recover barrier: a panic in experiment code is
// contained to this cell and classified, with the stack captured for the
// ledger, instead of killing the whole sweep.
func (m *Matrix) runProtected(c matrixCell, seed int64, tp *tbPool) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{fail: &cellFailure{
				reason: FailCellPanic,
				detail: fmt.Sprint(r),
				stack:  string(debug.Stack()),
			}}
		}
	}()
	value, res := c.body.run(seed, tp)
	out.value = value
	if res != nil {
		out.rec = m.observe(c.cell, seed, *res)
		res.release() // last touch: the testbed is recycled after this
	}
	return out
}

// recordCellFailure returns a terminal harness failure's classified
// ledger record (outcome cell_panic or cell_timeout, stack attached) when
// a ledger is active, else nil. The cell is deliberately NOT
// checkpointed — a resumed run re-attempts it.
func (m *Matrix) recordCellFailure(c Cell, seed int64, fail *cellFailure) *obs.CellRecord {
	if m.o.Ledger == nil {
		return nil
	}
	rec := m.cellRecord(c, seed, fail.reason.String())
	rec.Stack = fail.detail
	if fail.stack != "" {
		rec.Stack = fail.detail + "\n" + fail.stack
	}
	return rec
}

// checkpointCell durably appends one successfully completed cell:
// identity, seed, the deterministic ledger record (if the cell surfaced a
// Result), and the cell's value as the payload.
func (m *Matrix) checkpointCell(c Cell, seed int64, out outcome) {
	if m.ck == nil {
		return
	}
	raw, err := json.Marshal(out.value)
	if err != nil {
		m.noteCheckpointErr(err)
		return
	}
	cc := obs.CheckpointCell{
		CellID:  c.id(),
		Seed:    seed,
		Record:  out.rec,
		Payload: raw,
	}
	if err := m.ck.AppendCheckpointCell(cc); err != nil {
		m.noteCheckpointErr(err)
	}
}

// noteCheckpointErr keeps the first checkpoint failure for MatrixStats.
func (m *Matrix) noteCheckpointErr(err error) {
	m.ckErrMu.Lock()
	if m.ckErr == nil {
		m.ckErr = err
	}
	m.ckErrMu.Unlock()
}

// pltPayload is the value of the engine's page-load cells (comparePaired
// arms and runRounds cells): everything their aggregation reads of a
// Result, round-trippable through JSON exactly (nanoseconds as int64, not
// float seconds).
type pltPayload struct {
	PLTNS     int64 `json:"plt_ns"`
	Completed bool  `json:"completed,omitempty"`
	Failure   int   `json:"failure,omitempty"`
	FalseLoss int   `json:"false_loss,omitempty"`
}

func pltOf(res Result) pltPayload {
	return pltPayload{
		PLTNS:     int64(res.PLT),
		Completed: res.Completed,
		Failure:   int(res.FailureReason),
	}
}

// Seconds converts exactly as Result.PLT.Seconds() does, so restored
// sample vectors match re-run ones to the last bit.
func (p pltPayload) Seconds() float64 { return time.Duration(p.PLTNS).Seconds() }

// recordFailure folds the payload into comparison failure accounting.
func (p pltPayload) recordFailure(incomplete *int, failures *map[FailureReason]int) {
	if p.Completed {
		return
	}
	*incomplete++
	if *failures == nil {
		*failures = make(map[FailureReason]int)
	}
	(*failures)[FailureReason(p.Failure)]++
}
