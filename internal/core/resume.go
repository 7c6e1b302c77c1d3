// Crash tolerance for the matrix engine: per-cell checkpointing and
// restore (skip completed cells on resume) and contained worker panics. A
// failed cell is not retried: it is a deterministic function of its seed,
// so a panic recurs — and so does a wedged simulation, which panics when
// it spends its event budget (testbed.run).
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

// setupCheckpoint opens the writing checkpoint (Options.CheckpointDir)
// and loads restorable cells from it, or from Options.ResumeFrom when
// that names another checkpoint (quicreport render restores one without
// writing any). Checkpoint failures are recorded in stats.CheckpointErr
// but never abort the sweep — a run without durability beats no run.
// Returns nil when nothing can be restored.
func (m *Matrix) setupCheckpoint(stats *MatrixStats) map[obs.CellID]obs.CheckpointCell {
	if m.o.CheckpointDir == "" && m.o.ResumeFrom == "" {
		return nil
	}
	h := obs.CheckpointHeader{SweepIdentity: m.identity()}
	var (
		found   []obs.CheckpointCell
		ownPath string
	)
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
				found = salvaged
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
						"resume from %s: checkpoint is for a different sweep config", path)
				}
			default:
				found = append(found, cells...)
			}
		}
	}
	if len(found) == 0 {
		return nil
	}
	restored := make(map[obs.CellID]obs.CheckpointCell, len(found))
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
// unobserved exactly as it does after a fresh run).
func (m *Matrix) tryRestore(c matrixCell, seed int64, ent obs.CheckpointCell) (*obs.CellRecord, bool) {
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
	return rec, true
}

// cellFailure is a contained panic of one cell: its message and the
// goroutine stack captured at the panic.
type cellFailure struct {
	detail string
	stack  string
}

// outcome is what one execution of a cell produced: its value and the
// ledger record of the Result it surfaced (nil when it surfaced none or
// no sink wants one), or the failure that ended it.
type outcome struct {
	value any
	rec   *obs.CellRecord
	fail  *cellFailure
}

// runProtected executes the cell body, and the observation of the Result
// it surfaces, behind a recover barrier: a panic in experiment code — a
// spent event budget included — is contained to this cell and classified,
// with the stack captured for the ledger, instead of killing the whole
// sweep.
func (m *Matrix) runProtected(c matrixCell, seed int64, tp *tbPool) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{fail: &cellFailure{
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

// recordCellFailure returns a contained panic's classified ledger record
// (outcome cell_panic, message and stack attached) when a ledger is
// active, else nil. The cell is deliberately NOT
// checkpointed — a resumed run re-attempts it.
func (m *Matrix) recordCellFailure(c Cell, seed int64, fail *cellFailure) *obs.CellRecord {
	if m.o.Ledger == nil {
		return nil
	}
	rec := m.cellRecord(c, seed, FailCellPanic.String())
	rec.Stack = fail.detail + "\n" + fail.stack
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

// harnessFailed files a round whose cell panicked as cell_panic:
// incomplete, PLT zero.
func (p *pltPayload) harnessFailed() { *p = pltPayload{Failure: int(FailCellPanic)} }

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
