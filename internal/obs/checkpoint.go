package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// Per-cell checkpoints: the durable complement of the run ledger.
//
// A ledger block is written once, at the end of a sweep — a process
// that dies mid-sweep leaves nothing. A checkpoint file is the same
// per-cell record stream made crash-tolerant: one fsync'd JSONL line
// per completed cell, appended the moment the cell finishes, so a sweep
// killed at an arbitrary point (SIGKILL included) can be resumed with
// only the unfinished cells recomputed. Cell-seed derivation guarantees
// the resumed sweep's rendered output, bundle tree, and ledger
// deterministic section are byte-identical to an uninterrupted run.
//
// Layout (one file per experiment, under Options.CheckpointDir):
//
//	<dir>/<experiment>.ckpt
//	    {"type":"ckpt_header", ...}   run identity + resume key
//	    {"type":"ckpt_cell", ...}     one per completed cell, in
//	                                  completion (not registration)
//	                                  order: identity, seed, the
//	                                  cell's deterministic ledger
//	                                  record, and the experiment's
//	                                  aggregation payload
//
// Torn-write safety: every reader of a checkpoint salvages — it takes
// the longest valid prefix (Scan) and ignores the damage after it — so a
// checkpoint can never be made unreadable by a crash mid-append, only
// shorter (enforced by FuzzLedgerRead), and OpenCheckpoint truncates the
// file back to that prefix before appending.

// CheckpointSchema is the checkpoint format version, stamped into every
// header.
const CheckpointSchema = 1

// CheckpointExt is the canonical file suffix for per-experiment
// checkpoint files inside a checkpoint directory.
const CheckpointExt = ".ckpt"

// The checkpoint record types.
const (
	TypeCheckpointHeader = "ckpt_header"
	TypeCheckpointCell   = "ckpt_cell"
)

// CheckpointHeader identifies the sweep a checkpoint belongs to. A
// resume only trusts cell records whose header Key matches the resuming
// run's configuration — base seed, rounds, cell count, cc override,
// seed-derivation scheme and Go version all participate, so a checkpoint
// from a different config (or a code version with different derivation)
// is rejected wholesale rather than replayed wrongly.
type CheckpointHeader struct {
	Type   string `json:"type"`
	Schema int    `json:"schema"`

	SweepIdentity

	// ResumeKey is Key() at write time, stored for human diffing; a
	// reader always recomputes it.
	ResumeKey string `json:"resume_key"`
}

// Key digests what a resume must agree on: the sweep identity alone. The
// host fact a Manifest.Digest counts (GOMAXPROCS) is deliberately
// excluded, so a sweep resumes at any worker count and on any host.
func (h CheckpointHeader) Key() string {
	// A caller-built header (Schema unset) means the current schema, so
	// it matches files this code wrote and rejects other schemas.
	schema := h.Schema
	if schema == 0 {
		schema = CheckpointSchema
	}
	return h.digest(schema)
}

// CheckpointCell is one completed cell's durable record: identity and
// seed (verified on resume), the deterministic ledger record to replay
// into the resumed run's ledger, and the experiment's opaque aggregation
// payload (the JSON of the value the cell returned to core.AddCell).
type CheckpointCell struct {
	Type string `json:"type"`
	CellID
	Seed    int64           `json:"seed"`
	Record  *CellRecord     `json:"record,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// OpenCheckpoint opens (or creates) the checkpoint file at path for the
// sweep described by h and returns its writer, which fsyncs every record.
// If the file already holds a checkpoint whose header Key matches h's,
// its salvageable cell records are returned and subsequent appends extend
// it — the resume path. A missing, empty, torn-beyond-salvage, or
// config-mismatched file is (re)initialized with a fresh header and no
// cells are returned.
func OpenCheckpoint(path string, h CheckpointHeader) (*Ledger, []CheckpointCell, error) {
	// Stamp the format fields before the key comparison: Schema enters
	// Key(), and callers describe only the sweep, not the file format.
	h.Type = TypeCheckpointHeader
	h.Schema = CheckpointSchema
	h.ResumeKey = h.Key()
	l, entries, err := openLog(path, true)
	if err != nil {
		return nil, nil, err
	}
	if hdr, cells := checkpointOf(entries); hdr != nil && hdr.Key() == h.Key() {
		return l, cells, nil
	}
	// Another sweep's file (or none): nothing in it is this run's.
	err = l.f.Truncate(0)
	if err == nil {
		err = l.append(h)
	}
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	syncDir(filepath.Dir(path))
	return l, nil, nil
}

// syncDir best-effort fsyncs a directory so a freshly created
// checkpoint file survives a machine crash, not just a process kill.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// AppendCheckpointCell stamps and appends one completed cell.
func (l *Ledger) AppendCheckpointCell(c CheckpointCell) error {
	c.Type = TypeCheckpointCell
	return l.append(c)
}

// checkpointOf picks a checkpoint out of scanned entries: the first
// header (nil when there is none) and every cell record.
func checkpointOf(entries []Entry) (hdr *CheckpointHeader, cells []CheckpointCell) {
	for _, e := range entries {
		switch {
		case e.Header != nil && hdr == nil:
			hdr = e.Header
		case e.CkptCell != nil:
			cells = append(cells, *e.CkptCell)
		}
	}
	return hdr, cells
}

// ReadCheckpointFile reads the checkpoint at path the way a resume does:
// the header (nil if the file holds none), every cell record in the
// longest valid prefix, and the byte length of that prefix. Content
// damage is not an error — whatever precedes it is returned.
func ReadCheckpointFile(path string) (*CheckpointHeader, []CheckpointCell, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	entries, valid, _ := Scan(data)
	hdr, cells := checkpointOf(entries)
	return hdr, cells, valid, nil
}
