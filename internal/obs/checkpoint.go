package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
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
//	                                  order: identity, seed, attempt
//	                                  count, the cell's deterministic
//	                                  ledger record, and the
//	                                  experiment's aggregation payload
//
// Torn-write safety: a reader accepts the longest prefix of complete,
// parseable lines and ignores everything after the first torn or
// corrupt line — a checkpoint can therefore never be made unreadable by
// a crash mid-append, only shorter (enforced by FuzzLedgerRead). The
// writer truncates a salvaged file back to its valid prefix before
// appending, so one torn line never corrupts subsequent records.

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
// run's configuration — base seed, rounds, cell count, seed-derivation
// scheme and Go version all participate, so a checkpoint from a
// different config (or a code version with different derivation) is
// rejected wholesale rather than replayed wrongly.
type CheckpointHeader struct {
	Type   string `json:"type"`
	Schema int    `json:"schema"`

	SweepIdentity

	// Shard is "i/n" provenance when the writing run executed one shard
	// of the cell space. It does NOT enter the resume key: shards of
	// the same sweep are mergeable and resumable into a full run.
	Shard string `json:"shard,omitempty"`

	// ResumeKey is Key() at write time, stored for human diffing; a
	// reader always recomputes it.
	ResumeKey string `json:"resume_key"`
}

// Key digests what a resume must agree on: the sweep identity alone.
// Host facts a Manifest.Digest counts (GOMAXPROCS) and shard/bundle
// paths are deliberately excluded.
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
// seed (verified on resume), how many attempts it took (retry
// provenance), the deterministic ledger record to replay into the
// resumed run's ledger, and the experiment's opaque aggregation payload
// (the JSON of the value the cell returned to core.AddCell).
type CheckpointCell struct {
	Type     string `json:"type"`
	Scenario int    `json:"scenario"`
	Round    int    `json:"round"`
	Proto    string `json:"proto"`
	Arm      int    `json:"arm"`
	Seed     int64  `json:"seed"`

	// Attempts is set (>1) when the cell needed retries.
	Attempts int `json:"attempts,omitempty"`

	Record  *CellRecord     `json:"record,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Checkpoint appends fsync'd per-cell records to a checkpoint file.
// Appends are serialized by a mutex and each one is synced to stable
// storage before returning, so a record either survives a crash whole
// or (torn mid-write) is discarded by the tolerant reader.
type Checkpoint struct {
	mu    sync.Mutex
	f     *os.File
	err   error
	cells int
}

// OpenCheckpoint opens (or creates) the checkpoint file at path for the
// sweep described by h. If the file already holds a checkpoint whose
// header Key matches h's, its salvageable cell records are returned and
// subsequent appends extend it — the resume path. A missing, empty,
// torn-beyond-salvage, or config-mismatched file is (re)initialized
// with a fresh header and no cells are returned.
func OpenCheckpoint(path string, h CheckpointHeader) (*Checkpoint, []CheckpointCell, error) {
	// Stamp the format fields before the key comparison: Schema enters
	// Key(), and callers describe only the sweep, not the file format.
	h.Type = TypeCheckpointHeader
	h.Schema = CheckpointSchema
	h.ResumeKey = h.Key()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	hdr, cells, valid, err := ReadCheckpoint(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	ck := &Checkpoint{f: f}
	if hdr != nil && hdr.Key() == h.Key() {
		// Resumable: drop any torn tail, keep appending after the valid
		// prefix.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(valid, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		ck.cells = len(cells)
		return ck, cells, nil
	}
	// Fresh (or stale-config) file: truncate and write the new header.
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := ck.appendLocked(h); err != nil {
		f.Close()
		return nil, nil, err
	}
	syncDir(filepath.Dir(path))
	return ck, nil, nil
}

// syncDir best-effort fsyncs a directory so a freshly created
// checkpoint file survives a machine crash, not just a process kill.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// appendLocked marshals rec as one JSONL line, writes it, and fsyncs.
// Callers hold the mutex (or own the Checkpoint exclusively, as
// OpenCheckpoint does).
func (c *Checkpoint) appendLocked(rec any) error {
	if c.err != nil {
		return c.err
	}
	data, err := json.Marshal(rec)
	if err == nil {
		data = append(data, '\n')
		_, err = c.f.Write(data)
	}
	if err == nil {
		err = c.f.Sync()
	}
	if err != nil {
		c.err = err
	}
	return err
}

// AppendCell stamps and durably appends one completed cell.
func (c *Checkpoint) AppendCell(cell CheckpointCell) error {
	cell.Type = TypeCheckpointCell
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.appendLocked(cell); err != nil {
		return err
	}
	c.cells++
	return nil
}

// Cells returns the number of cell records in the file (salvaged +
// appended this run).
func (c *Checkpoint) Cells() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cells
}

// Err returns the first append error, if any.
func (c *Checkpoint) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close closes the underlying file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return c.err
	}
	if cerr := c.f.Close(); cerr != nil && c.err == nil {
		c.err = cerr
	}
	c.f = nil
	return c.err
}

// ReadCheckpoint parses a checkpoint stream tolerantly: it returns the
// header (nil if the first line is not one), every cell record in the
// longest valid prefix, and the byte length of that prefix. Content
// damage — a torn final line, corrupt JSON, an unterminated record — is
// never an error; parsing simply stops at the damage and everything
// before it is returned. Only reader IO failures surface as errors.
func ReadCheckpoint(r io.Reader) (*CheckpointHeader, []CheckpointCell, int64, error) {
	br := bufio.NewReader(r)
	var (
		hdr   *CheckpointHeader
		cells []CheckpointCell
		valid int64
	)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: a torn final record. Discard it.
			return hdr, cells, valid, nil
		}
		if err != nil {
			return hdr, cells, valid, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			valid += int64(len(line))
			continue
		}
		var tag struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(trimmed, &tag) != nil {
			// Corrupt line: stop at the damage.
			return hdr, cells, valid, nil
		}
		switch tag.Type {
		case TypeCheckpointHeader:
			var h CheckpointHeader
			if json.Unmarshal(trimmed, &h) != nil {
				return hdr, cells, valid, nil
			}
			if hdr == nil {
				hdr = &h
			}
		case TypeCheckpointCell:
			var c CheckpointCell
			if json.Unmarshal(trimmed, &c) != nil {
				return hdr, cells, valid, nil
			}
			cells = append(cells, c)
		default:
			// Unknown record type: written by a newer schema, skip.
		}
		valid += int64(len(line))
	}
}

// ReadCheckpointFile parses the checkpoint at path tolerantly (see
// ReadCheckpoint).
func ReadCheckpointFile(path string) (*CheckpointHeader, []CheckpointCell, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// cellKey identifies a cell inside one experiment's checkpoint.
type cellKey struct {
	scenario, round, arm int
	proto                string
}

// MergeCheckpointFiles stitches shard checkpoints into one resumable
// file: every input must carry the same resume key (shard labels may
// differ — the key excludes them), duplicate cells keep their first
// occurrence, and the merged file is written with the cells in
// canonical (scenario, round, arm, proto) order under a single header
// with the shard label cleared. Returns the merged cell count.
func MergeCheckpointFiles(out string, ins []string) (int, error) {
	if len(ins) == 0 {
		return 0, fmt.Errorf("merge: no input checkpoints")
	}
	var (
		ref    *CheckpointHeader
		refIn  string
		seen   = map[cellKey]bool{}
		merged []CheckpointCell
	)
	for _, in := range ins {
		hdr, cells, _, err := ReadCheckpointFile(in)
		if err != nil {
			return 0, fmt.Errorf("merge: %s: %w", in, err)
		}
		if hdr == nil {
			return 0, fmt.Errorf("merge: %s: no checkpoint header", in)
		}
		if ref == nil {
			ref, refIn = hdr, in
		} else if hdr.Key() != ref.Key() {
			return 0, fmt.Errorf("merge: %s and %s checkpoint different sweep configs (resume keys %s vs %s)",
				refIn, in, ref.Key(), hdr.Key())
		}
		for _, c := range cells {
			k := cellKey{c.Scenario, c.Round, c.Arm, c.Proto}
			if seen[k] {
				continue
			}
			seen[k] = true
			merged = append(merged, c)
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Arm != b.Arm {
			return a.Arm < b.Arm
		}
		return a.Proto < b.Proto
	})

	h := *ref
	h.Shard = ""
	ck, _, err := OpenCheckpoint(out, h)
	if err != nil {
		return 0, fmt.Errorf("merge: %s: %w", out, err)
	}
	for _, c := range merged {
		if err := ck.AppendCell(c); err != nil {
			ck.Close()
			return 0, fmt.Errorf("merge: %s: %w", out, err)
		}
	}
	if err := ck.Close(); err != nil {
		return 0, fmt.Errorf("merge: %s: %w", out, err)
	}
	return len(merged), nil
}
