package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"sync"

	"quiclab/internal/profile"
)

// The run ledger: a durable, append-only JSONL record of every sweep a
// process runs, designed so two ledgers are *diffable* — across code
// versions, config versions, machines, and worker counts — the way
// Piraux et al. diff QUIC implementations over time.
//
// Each sweep appends one block:
//
//	{"type":"manifest", ...}   run identity: experiment, base seed,
//	                           rounds, cell count, seed-derivation
//	                           scheme, go version, config digest
//	{"type":"cell", ...}       one per cell, in registration order:
//	                           identity, derived seed, outcome,
//	                           failure class, PLT, bundle path,
//	                           anomaly findings
//	{"type":"timing", ...}     one per cell: host wall time
//	{"type":"sweep_stats",...} workers, total wall, summed cell wall
//
// The manifest and cell records depend only on the experiment's
// deterministic output, so they are byte-identical at any worker count
// (enforced by TestLedgerDeterminismAcrossWorkers). Everything measured
// on the host clock is *isolated* in the timing/sweep_stats section at
// the end of the block: strip those two record types and the remainder
// of two same-config ledgers must match exactly.
//
// This is also the provenance substrate for resumable sweeps: a
// checkpointer can replay cell records to decide which cells already
// ran, because seed derivation guarantees any partition of the cell
// space yields identical per-cell results.

// LedgerSchema is the current ledger schema version, stamped into every
// manifest.
const LedgerSchema = 1

// The ledger record types.
const (
	TypeManifest   = "manifest"
	TypeCell       = "cell"
	TypeTiming     = "timing"
	TypeSweepStats = "sweep_stats"
)

// SweepIdentity is a sweep's configuration: what a ledger manifest and a
// checkpoint header both record, and what their digests are taken over.
// All fields are deterministic for a given build and configuration.
type SweepIdentity struct {
	Experiment string `json:"experiment"`
	BaseSeed   int64  `json:"base_seed"`
	Rounds     int    `json:"rounds"`
	Quick      bool   `json:"quick,omitempty"`
	Cells      int    `json:"cells"`
	Scenarios  int    `json:"scenarios"`

	// SeedDerivation names the cell-seed scheme so a consumer can verify
	// two runs drew comparable seeds.
	SeedDerivation string `json:"seed_derivation"`
	GoVersion      string `json:"go_version"`
}

// digest is FNV-1a over the canonical rendering of the record's schema
// version, every identity field, and whatever else the record counts as
// configuration, each followed by a 0xff separator.
func (id SweepIdentity) digest(schema int, more ...string) string {
	h := fnv.New64a()
	for _, field := range append([]string{
		strconv.Itoa(schema),
		id.Experiment,
		strconv.FormatInt(id.BaseSeed, 10),
		strconv.Itoa(id.Rounds),
		strconv.FormatBool(id.Quick),
		strconv.Itoa(id.Cells),
		strconv.Itoa(id.Scenarios),
		id.SeedDerivation,
		id.GoVersion,
	}, more...) {
		io.WriteString(h, field)
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// Manifest identifies one sweep: everything needed to reproduce it and
// to decide whether two ledger blocks are comparable.
type Manifest struct {
	Type   string `json:"type"`
	Schema int    `json:"schema"`

	SweepIdentity

	GOMAXPROCS int `json:"gomaxprocs"`

	BundleDir string `json:"bundle_dir,omitempty"`

	// Shard is "i/n" when this block was produced by one shard of a
	// partitioned sweep (cell records then cover only the owned cells).
	// Like BundleDir it is provenance, not configuration, and stays out
	// of the config digest: a shard's records are directly comparable to
	// the matching subset of a full run.
	Shard string `json:"shard,omitempty"`

	// ConfigDigest is an FNV-1a digest over the deterministic fields
	// above — a cheap "same run config?" equality check between
	// ledgers. Computed by AppendManifest when empty.
	ConfigDigest string `json:"config_digest"`
}

// Digest computes the manifest's config digest: the sweep identity plus
// GOMAXPROCS.
func (m Manifest) Digest() string {
	return m.digest(m.Schema, strconv.Itoa(m.GOMAXPROCS))
}

// CellRecord is the deterministic per-cell outcome record.
type CellRecord struct {
	Type       string `json:"type"`
	Experiment string `json:"experiment"`
	Scenario   int    `json:"scenario"`
	Round      int    `json:"round"`
	Proto      string `json:"proto"`
	Arm        int    `json:"arm"`
	Seed       int64  `json:"seed"`

	// Outcome is "completed", a failure class (the core failure
	// taxonomy: handshake_failure, idle_timeout, rto_exhausted,
	// deadline, other), or "unobserved" for cells whose experiment
	// does not surface a per-cell Result to the engine.
	Outcome string `json:"outcome"`

	// PLTSeconds is virtual (simulated) time — deterministic.
	PLTSeconds float64 `json:"plt_seconds,omitempty"`

	// Bundle is the cell's report-bundle directory, when the sweep
	// wrote bundles.
	Bundle string `json:"bundle,omitempty"`

	// Anomalies holds the findings the anomaly pass flagged on this
	// cell's metric series and trace summary.
	Anomalies []Finding `json:"anomalies,omitempty"`

	// Budgets holds the per-connection stall-attribution budgets
	// (server side, creation order) when the run profiled.
	Budgets []profile.Budget `json:"budgets,omitempty"`

	// Stack is the captured goroutine stack when Outcome is cell_panic —
	// the contained worker panic, preserved for post-mortem without
	// re-running the sweep.
	Stack string `json:"stack,omitempty"`
}

// OutcomeCompleted and OutcomeUnobserved are the non-failure outcomes.
const (
	OutcomeCompleted  = "completed"
	OutcomeUnobserved = "unobserved"
)

// TimingRecord carries one cell's host-clock wall time — the
// nondeterministic complement of its CellRecord, isolated in the
// timing section.
type TimingRecord struct {
	Type     string  `json:"type"`
	Scenario int     `json:"scenario"`
	Round    int     `json:"round"`
	Proto    string  `json:"proto"`
	Arm      int     `json:"arm"`
	WallMS   float64 `json:"wall_ms"`

	// Attempts is set (>1) when the cell needed retries, and Resumed
	// when the cell was restored from a checkpoint instead of re-run.
	// Both are run provenance, not measurement, so they live in the
	// host-clock section: a resumed run's deterministic section stays
	// byte-identical to an uninterrupted run's.
	Attempts int  `json:"attempts,omitempty"`
	Resumed  bool `json:"resumed,omitempty"`
}

// SweepStats closes a sweep's ledger block with host-side aggregates.
type SweepStats struct {
	Type       string  `json:"type"`
	Experiment string  `json:"experiment"`
	Workers    int     `json:"workers"`
	WallMS     float64 `json:"wall_ms"`
	CellWallMS float64 `json:"cell_wall_ms"`

	// Crash-tolerance provenance (all zero on an uninterrupted,
	// unsharded run, so existing ledgers render unchanged).
	SkippedCells int    `json:"skipped_cells,omitempty"` // restored from checkpoint
	Retries      int    `json:"retries,omitempty"`       // extra attempts beyond the first
	CellPanics   int    `json:"cell_panics,omitempty"`
	CellTimeouts int    `json:"cell_timeouts,omitempty"`
	Shard        string `json:"shard,omitempty"`
}

// Ledger appends JSONL records to a writer. Appends are serialized by a
// mutex; the first write error sticks and is returned by Err and Close
// (so a sweep can keep running and report the failure once at the end),
// while ErrCount reports how many records were lost in total — the true
// scope of a widespread IO failure, not just its first symptom.
type Ledger struct {
	mu      sync.Mutex
	w       *bufio.Writer
	c       io.Closer
	err     error
	errCnt  int // records lost: failed appends + appends refused after the sticky error
	records int // records appended successfully
}

// NewLedger wraps an open writer.
func NewLedger(w io.Writer) *Ledger {
	return &Ledger{w: bufio.NewWriter(w)}
}

// CreateLedger opens (appending) or creates the ledger file at path. A
// run killed mid-flush leaves a torn final line; it is dropped first —
// the rule OpenCheckpoint applies — so this run's block does not start
// in the middle of it and make the whole file unreadable.
func CreateLedger(path string) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := dropTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	l := NewLedger(f)
	l.c = f
	return l, nil
}

// dropTornTail truncates f to just after its last newline (to nothing
// when it holds none).
func dropTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	end := st.Size()
	buf := make([]byte, 1) // an intact ledger ends in a newline: one byte settles it
	for end > 0 {
		n := min(end, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end = end - n + int64(i) + 1
			break
		}
		end -= n
		if len(buf) == 1 {
			buf = make([]byte, 4<<10) // torn: scan backwards a block at a time
		}
	}
	if end == st.Size() {
		return nil
	}
	return f.Truncate(end)
}

// append marshals one record as a single JSONL line.
func (l *Ledger) append(rec any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		l.errCnt++ // record refused after the sticky error: still lost
		return l.err
	}
	data, err := json.Marshal(rec)
	if err == nil {
		_, err = l.w.Write(data)
	}
	if err == nil {
		err = l.w.WriteByte('\n')
	}
	if err != nil {
		l.err = err
		l.errCnt++
		return err
	}
	l.records++
	return nil
}

// AppendManifest stamps and appends a sweep manifest, computing the
// config digest when the caller left it empty.
func (l *Ledger) AppendManifest(m Manifest) error {
	m.Type = TypeManifest
	m.Schema = LedgerSchema
	if m.ConfigDigest == "" {
		m.ConfigDigest = m.Digest()
	}
	return l.append(m)
}

// AppendCell stamps and appends one cell record.
func (l *Ledger) AppendCell(c CellRecord) error {
	c.Type = TypeCell
	if c.Outcome == "" {
		c.Outcome = OutcomeUnobserved
	}
	return l.append(c)
}

// AppendTiming stamps and appends one cell-timing record.
func (l *Ledger) AppendTiming(t TimingRecord) error {
	t.Type = TypeTiming
	return l.append(t)
}

// AppendSection copies an already-marshalled run of records (a Spool's
// contents) into the ledger. records is the section's record count, used
// only for loss accounting when the ledger is already in its sticky
// error state or the copy fails.
func (l *Ledger) AppendSection(r io.Reader, records int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		l.errCnt += records
		return l.err
	}
	if _, err := io.Copy(l.w, r); err != nil {
		l.err = err
		l.errCnt += records
		return err
	}
	return nil
}

// AppendSweepStats stamps and appends a sweep's closing stats record.
func (l *Ledger) AppendSweepStats(s SweepStats) error {
	s.Type = TypeSweepStats
	return l.append(s)
}

// Err returns the first write error, if any.
func (l *Ledger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Records returns how many records were appended successfully.
func (l *Ledger) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
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
	if l.c != nil {
		if cerr := l.c.Close(); cerr != nil && l.err == nil {
			l.err = cerr
		}
		l.c = nil
	}
	return l.err
}

// Entry is one parsed ledger line; exactly one field is non-nil.
// Unknown record types parse to a zero Entry (forward compatibility).
type Entry struct {
	Manifest *Manifest
	Cell     *CellRecord
	Timing   *TimingRecord
	Stats    *SweepStats
}

// ReadLedger parses a JSONL ledger stream.
func ReadLedger(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Entry
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var tag struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &tag); err != nil {
			return nil, fmt.Errorf("ledger line %d: %w", lineNo, err)
		}
		var e Entry
		var err error
		switch tag.Type {
		case TypeManifest:
			e.Manifest = new(Manifest)
			err = json.Unmarshal(line, e.Manifest)
		case TypeCell:
			e.Cell = new(CellRecord)
			err = json.Unmarshal(line, e.Cell)
		case TypeTiming:
			e.Timing = new(TimingRecord)
			err = json.Unmarshal(line, e.Timing)
		case TypeSweepStats:
			e.Stats = new(SweepStats)
			err = json.Unmarshal(line, e.Stats)
		case "":
			return nil, fmt.Errorf("ledger line %d: missing record type", lineNo)
		default:
			continue // unknown type: written by a newer schema, skip
		}
		if err != nil {
			return nil, fmt.Errorf("ledger line %d (%s): %w", lineNo, tag.Type, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// ReadLedgerFile parses the ledger at path.
func ReadLedgerFile(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries, err := ReadLedger(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}
