// Crash tolerance for the matrix engine: per-cell checkpointing and
// restore (skip completed cells on resume), contained worker panics,
// per-cell timeouts, and bounded retry with exponential backoff.
//
// The invariant everything here serves: a sweep that is killed at an
// arbitrary point and resumed produces byte-identical rendered output,
// bundle trees, and ledger deterministic sections to a sweep that ran
// uninterrupted. Restored cells replay the exact payloads and ledger
// records their original runs produced; unfinished cells re-run under
// the same derived seeds.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"quiclab/internal/obs"
)

// resumeEntry is one checkpointed cell a resuming run may restore.
// persisted marks entries salvaged from this run's own checkpoint file
// (already on disk); entries from a foreign ResumeFrom are re-appended
// to the writing checkpoint on restore so it stays self-contained.
type resumeEntry struct {
	cc        obs.CheckpointCell
	persisted bool
}

// checkpointHeader builds the header describing this sweep's identity
// for resume-key matching.
func (m *Matrix) checkpointHeader(shard string) obs.CheckpointHeader {
	return obs.CheckpointHeader{
		Experiment:     m.experiment,
		BaseSeed:       m.o.Seed,
		Rounds:         m.o.Rounds,
		Quick:          m.o.Quick,
		Cells:          len(m.cells),
		Scenarios:      m.scenarios,
		SeedDerivation: SeedDerivation,
		GoVersion:      runtime.Version(),
		Shard:          shard,
	}
}

// setupCheckpoint opens the writing checkpoint (Options.CheckpointDir)
// and loads restorable cells (Options.ResumeFrom). Checkpoint failures
// are recorded in stats.CheckpointErr but never abort the sweep — a run
// without durability beats no run. Returns nil when nothing can be
// restored.
func (m *Matrix) setupCheckpoint(stats *MatrixStats) map[Cell]resumeEntry {
	if m.o.CheckpointDir == "" && m.o.ResumeFrom == "" {
		return nil
	}
	h := m.checkpointHeader(stats.Shard)
	restored := make(map[Cell]resumeEntry)
	add := func(cells []obs.CheckpointCell, persisted bool) {
		for _, cc := range cells {
			p, ok := protoFromString(cc.Proto)
			if !ok {
				continue
			}
			c := Cell{
				Experiment: m.experiment,
				Scenario:   cc.Scenario,
				Round:      cc.Round,
				Proto:      p,
				Arm:        cc.Arm,
			}
			if _, dup := restored[c]; dup {
				continue
			}
			restored[c] = resumeEntry{cc: cc, persisted: persisted}
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
	if len(restored) == 0 {
		return nil
	}
	return restored
}

// tryRestore replays one checkpointed cell into experiment storage
// instead of re-running it. Every failure mode returns false — the cell
// simply re-runs — so a stale seed, missing bundle, undecodable payload
// or non-resumable cell can never poison a resumed run. On success the
// checkpointed ledger record (bundle path rewritten for this run's
// BundleDir) is installed for the ledger flush, and foreign entries are
// re-appended to the writing checkpoint.
func (m *Matrix) tryRestore(c matrixCell, seed int64, ent resumeEntry) bool {
	if c.restore == nil || ent.cc.Seed != seed {
		return false
	}
	// The ledger flush replays the checkpointed record, so a ledger run
	// can only skip cells whose records were captured. A checkpoint-only
	// resume needs just the payload: cells that never route a Result
	// through observe (e.g. tournament cells) checkpoint without a
	// record and must still restore.
	needRecord := m.o.Ledger != nil
	if needRecord && ent.cc.Record == nil {
		return false
	}
	bundleDir := ""
	if m.o.BundleDir != "" {
		// The restored run must present the same bundle tree as an
		// uninterrupted one: accept the skip only if the cell's bundle
		// exists and parses (a torn bundle from the killed run re-runs).
		bundleDir = CellDir(m.o.BundleDir, c.cell)
		if _, err := ReadBundleSummary(bundleDir); err != nil {
			return false
		}
	}
	if len(ent.cc.Payload) == 0 || c.restore(ent.cc.Payload) != nil {
		return false
	}
	if needRecord {
		rec := *ent.cc.Record
		rec.Bundle = bundleDir
		m.obsMu.Lock()
		if m.obsCells == nil {
			m.obsCells = make(map[Cell]*obs.CellRecord)
		}
		m.obsCells[c.cell] = &rec
		m.obsMu.Unlock()
	}
	if !ent.persisted && m.ck != nil {
		if err := m.ck.AppendCell(ent.cc); err != nil {
			m.noteCheckpointErr(err)
		}
	}
	return true
}

// cellFailure classifies a terminal harness failure of one cell.
type cellFailure struct {
	reason FailureReason // FailCellPanic or FailCellTimeout
	detail string
	stack  string // captured goroutine stack (panics only)
}

// attemptCell runs one cell up to 1+MaxRetries times with exponential
// backoff, returning the successful attempt's payload (nil for plain
// Add cells), the attempt count, and the terminal failure if every
// attempt failed.
func (m *Matrix) attemptCell(c matrixCell, seed int64, tp *tbPool) (payload any, attempts int, fail *cellFailure) {
	for attempt := 0; ; attempt++ {
		payload, fail = m.runAttempt(c, seed, tp)
		attempts = attempt + 1
		if fail == nil || attempt >= m.o.MaxRetries {
			return payload, attempts, fail
		}
		m.o.Telemetry.CellRetried()
		if !m.sleepInterruptible(m.o.RetryBackoff << attempt) {
			return payload, attempts, fail
		}
	}
}

// sleepInterruptible sleeps d, returning false early if
// Options.Interrupt fires (the caller then gives up retrying).
func (m *Matrix) sleepInterruptible(d time.Duration) bool {
	if m.o.Interrupt == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-m.o.Interrupt:
		return false
	case <-t.C:
		return true
	}
}

// runAttempt executes one attempt, bounded by Options.CellTimeout when
// positive. A timed-out attempt's goroutine is abandoned (documented in
// Options.CellTimeout); its eventual result lands in a buffered channel
// and is discarded.
func (m *Matrix) runAttempt(c matrixCell, seed int64, tp *tbPool) (any, *cellFailure) {
	if m.o.CellTimeout <= 0 {
		return m.runProtected(c, seed, tp)
	}
	type outcome struct {
		payload any
		fail    *cellFailure
	}
	ch := make(chan outcome, 1)
	go func() {
		// The abandoned goroutine shares the worker's pool: tbPool is
		// mutexed precisely so a late release from a timed-out attempt
		// cannot race the worker's retry.
		p, f := m.runProtected(c, seed, tp)
		ch <- outcome{p, f}
	}()
	t := time.NewTimer(m.o.CellTimeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out.payload, out.fail
	case <-t.C:
		return nil, &cellFailure{
			reason: FailCellTimeout,
			detail: fmt.Sprintf("cell exceeded CellTimeout %v", m.o.CellTimeout),
		}
	}
}

// runProtected executes the cell body with a recover barrier: a panic
// in experiment code is contained to this cell and classified, with the
// stack captured for the ledger, instead of killing the whole sweep.
func (m *Matrix) runProtected(c matrixCell, seed int64, tp *tbPool) (payload any, fail *cellFailure) {
	defer func() {
		if r := recover(); r != nil {
			payload = nil
			fail = &cellFailure{
				reason: FailCellPanic,
				detail: fmt.Sprint(r),
				stack:  string(debug.Stack()),
			}
		}
	}()
	if c.run != nil {
		return c.run(seed, tp), nil
	}
	c.fn(seed)
	return nil, nil
}

// recordCellFailure accounts a terminal harness failure: telemetry
// counters always, plus a classified ledger record (outcome cell_panic
// or cell_timeout, stack attached) when a ledger is active. The cell is
// deliberately NOT checkpointed — a resumed run re-attempts it.
func (m *Matrix) recordCellFailure(c Cell, seed int64, fail *cellFailure) {
	switch fail.reason {
	case FailCellPanic:
		m.o.Telemetry.CellPanicked()
	case FailCellTimeout:
		m.o.Telemetry.CellTimedOut()
	}
	if m.o.Ledger == nil {
		return
	}
	c.Experiment = m.experiment
	rec := &obs.CellRecord{
		Experiment: c.Experiment,
		Scenario:   c.Scenario,
		Round:      c.Round,
		Proto:      c.Proto.String(),
		Arm:        c.Arm,
		Seed:       seed,
		Outcome:    fail.reason.String(),
		Stack:      fail.detail,
	}
	if fail.stack != "" {
		rec.Stack = fail.detail + "\n" + fail.stack
	}
	m.obsMu.Lock()
	if m.obsCells == nil {
		m.obsCells = make(map[Cell]*obs.CellRecord)
	}
	m.obsCells[c] = rec
	m.obsMu.Unlock()
}

// checkpointCell durably appends one successfully completed resumable
// cell: identity, seed, retry provenance, the deterministic ledger
// record (if observability is on), and the aggregation payload.
func (m *Matrix) checkpointCell(c Cell, seed int64, attempts int, payload any) {
	if m.ck == nil || payload == nil {
		return
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		m.noteCheckpointErr(err)
		return
	}
	c.Experiment = m.experiment
	cc := obs.CheckpointCell{
		Scenario: c.Scenario,
		Round:    c.Round,
		Proto:    c.Proto.String(),
		Arm:      c.Arm,
		Seed:     seed,
		Payload:  raw,
	}
	if attempts > 1 {
		cc.Attempts = attempts
	}
	m.obsMu.Lock()
	if rec := m.obsCells[c]; rec != nil {
		recCopy := *rec
		cc.Record = &recCopy
	}
	m.obsMu.Unlock()
	if err := m.ck.AppendCell(cc); err != nil {
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

// protoFromString parses a checkpointed Proto label.
func protoFromString(s string) (Proto, bool) {
	switch s {
	case QUIC.String():
		return QUIC, true
	case TCP.String():
		return TCP, true
	}
	return 0, false
}

// pltPayload is the checkpoint payload of the engine's built-in cell
// shapes (comparePaired arms and runRounds cells): everything such a
// cell writes into experiment storage, round-trippable through JSON
// exactly (nanoseconds as int64, not float seconds).
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

func decodePLT(payload []byte) (pltPayload, error) {
	var p pltPayload
	err := json.Unmarshal(payload, &p)
	return p, err
}
