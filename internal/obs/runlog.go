// Package obs records the sweep itself — internal/trace and
// internal/metrics explain one emulated page load — in two passive layers
// (TestObservabilityIsPassive in internal/core): anomaly detection
// (anomaly.go) flags pathological cells from their metric series and
// trace summaries, and the run logs hold everything said about a sweep
// after it ran, its timing included.
//
// The run logs are one JSONL record format under the run ledger
// (ledger.go) and the per-experiment checkpoints (checkpoint.go). One
// writer appends records, one function reads them back, and one rule
// says what a damaged file still holds:
//
//   - a final line with no newline is what a crash mid-append leaves; it
//     is not a record, and reader and writer alike drop it silently;
//   - a complete line that does not parse (bad JSON, a known type with
//     the wrong shape, no "type" at all) ends the valid prefix and is
//     reported as damage; nothing after it is trusted;
//   - blank lines and records of an unknown type (a newer schema) are
//     skipped.
//
// What a caller does about damage is its own decision: a resume salvages
// the prefix and truncates the file to it (OpenCheckpoint), a report
// refuses the file (ReadLedger, CreateLedger).
package obs

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// CellID identifies one cell within an experiment's sweep. CellRecord,
// TimingRecord and CheckpointCell embed it, so the four fields are
// spelled, ordered and compared in one place.
type CellID struct {
	Scenario int    `json:"scenario"`
	Round    int    `json:"round"`
	Proto    string `json:"proto"`
	Arm      int    `json:"arm"`
}

// ID returns the identity itself; a record that embeds a CellID has it
// too, which is all FirstPerCell asks of a record.
func (id CellID) ID() CellID { return id }

// Compare orders cells canonically — scenario, round, arm, proto — the
// order a merged checkpoint is written in and every view sorts by.
func (id CellID) Compare(o CellID) int {
	return cmp.Or(
		cmp.Compare(id.Scenario, o.Scenario),
		cmp.Compare(id.Round, o.Round),
		cmp.Compare(id.Arm, o.Arm),
		cmp.Compare(id.Proto, o.Proto),
	)
}

// FirstPerCell returns recs, in order, without the records whose cell an
// earlier record already named. A checkpoint may hold a cell twice (a
// re-run after a failed restore, a foreign resume re-appended behind the
// original, overlapping shards); the first occurrence is the one a resume
// restores, so it is the one every reader counts.
func FirstPerCell[T interface{ ID() CellID }](recs []T) []T {
	seen := make(map[CellID]bool, len(recs))
	out := make([]T, 0, len(recs))
	for _, r := range recs {
		if id := r.ID(); !seen[id] {
			seen[id] = true
			out = append(out, r)
		}
	}
	return out
}

// Entry is one parsed record; exactly one field is non-nil.
type Entry struct {
	Manifest *Manifest
	Cell     *CellRecord
	Timing   *TimingRecord
	Stats    *SweepStats
	Header   *CheckpointHeader
	CkptCell *CheckpointCell
}

// recordTypes maps a record's "type" to the Entry field it decodes into.
var recordTypes = map[string]func(*Entry) any{
	TypeManifest:         func(e *Entry) any { e.Manifest = new(Manifest); return e.Manifest },
	TypeCell:             func(e *Entry) any { e.Cell = new(CellRecord); return e.Cell },
	TypeTiming:           func(e *Entry) any { e.Timing = new(TimingRecord); return e.Timing },
	TypeSweepStats:       func(e *Entry) any { e.Stats = new(SweepStats); return e.Stats },
	TypeCheckpointHeader: func(e *Entry) any { e.Header = new(CheckpointHeader); return e.Header },
	TypeCheckpointCell:   func(e *Entry) any { e.CkptCell = new(CheckpointCell); return e.CkptCell },
}

// Scan parses a run log under the rule at the top of this file. It
// returns one Entry per record of a known type in the longest valid
// prefix of data, the byte length of that prefix (a writer that appends
// must first truncate the file to it), and the damage that ended the
// prefix early, nil when all of data but a torn final line is valid.
func Scan(data []byte) (entries []Entry, valid int64, damage error) {
	for lineNo := 1; ; lineNo++ {
		n := bytes.IndexByte(data[valid:], '\n')
		if n < 0 {
			return entries, valid, nil
		}
		if line := bytes.TrimSpace(data[valid : valid+int64(n)]); len(line) > 0 {
			var tag struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal(line, &tag); err != nil {
				return entries, valid, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if tag.Type == "" {
				return entries, valid, fmt.Errorf("line %d: missing record type", lineNo)
			}
			if field, known := recordTypes[tag.Type]; known {
				var e Entry
				if err := json.Unmarshal(line, field(&e)); err != nil {
					return entries, valid, fmt.Errorf("line %d (%s): %w", lineNo, tag.Type, err)
				}
				entries = append(entries, e)
			}
		}
		valid += int64(n) + 1
	}
}

// Ledger appends JSONL records to a writer — the one writer under the
// run ledger and the checkpoints. Appends are serialized by a mutex; the
// first write error sticks and is returned by Err and Close (so a sweep
// can keep running and report the failure once at the end), while
// ErrCount reports how many records were lost in total — the true scope
// of a widespread IO failure, not just its first symptom.
//
// The constructor fixes the durability: CreateLedger and NewLedger
// buffer (a block is written at sweep end; a crash before then leaves
// nothing to read anyway), OpenCheckpoint writes and fsyncs every record
// before the append returns, so a record either survives a crash whole or
// is the torn final line Scan drops.
type Ledger struct {
	mu      sync.Mutex
	w       *bufio.Writer
	enc     *json.Encoder // onto w: a record's bytes are json.Marshal's plus '\n'
	f       *os.File      // the file Close closes; nil over a caller's writer
	durable bool          // flush and fsync f on every append
	err     error
	errCnt  int // records lost: failed appends + appends refused after the sticky error
}

// NewLedger wraps an open writer.
func NewLedger(w io.Writer) *Ledger {
	bw := bufio.NewWriter(w)
	return &Ledger{w: bw, enc: json.NewEncoder(bw)}
}

// openLog opens (or creates) the run log at path for appending and
// returns the entries it holds. A torn final line is cut off first, so no
// append ever lands behind one. A checkpoint is salvaged — everything
// from a corrupt complete line on is cut off too — and written durably;
// a ledger with such a line is refused untouched, the damage as the error.
func openLog(path string, checkpoint bool) (*Ledger, []Entry, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	entries, valid, damage := Scan(data)
	if damage != nil && !checkpoint {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, damage)
	}
	if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	l := NewLedger(f)
	l.f, l.durable = f, checkpoint
	return l, entries, nil
}

// append marshals one record as a single JSONL line, handed to the
// writer in one piece.
func (l *Ledger) append(rec any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		l.errCnt++ // record refused after the sticky error: still lost
		return l.err
	}
	err := l.enc.Encode(rec)
	if err == nil && l.durable {
		if err = l.w.Flush(); err == nil {
			err = l.f.Sync()
		}
	}
	if err != nil {
		l.err = err
		l.errCnt++
	}
	return err
}

// Err returns the first write error, if any.
func (l *Ledger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// ErrCount returns how many record appends were lost — the first failed
// write plus every append refused afterwards.
func (l *Ledger) ErrCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.errCnt
}

// Close flushes and, when the ledger owns a file, closes it.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ferr := l.w.Flush(); ferr != nil && l.err == nil {
		l.err = ferr
	}
	if l.f != nil {
		if cerr := l.f.Close(); cerr != nil && l.err == nil {
			l.err = cerr
		}
		l.f = nil
	}
	return l.err
}
