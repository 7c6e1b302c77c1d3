package obs

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"

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
//	                           rounds, cell count, cc override,
//	                           seed-derivation scheme, go version,
//	                           config digest
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
	// CC is the congestion-control override every scenario ran under
	// (core.Options.CC); empty means each scenario's own controller.
	CC string `json:"cc,omitempty"`

	// SeedDerivation names the cell-seed scheme so a consumer can verify
	// two runs drew comparable seeds.
	SeedDerivation string `json:"seed_derivation"`
	GoVersion      string `json:"go_version"`
}

// digest is FNV-1a over the canonical rendering of the record's schema
// version, every identity field, and whatever else the record counts as
// configuration, each followed by a 0xff separator. An empty CC is left
// out, so a sweep without the override keeps the digest it always had.
func (id SweepIdentity) digest(schema int, more ...string) string {
	fields := []string{
		strconv.Itoa(schema),
		id.Experiment,
		strconv.FormatInt(id.BaseSeed, 10),
		strconv.Itoa(id.Rounds),
		strconv.FormatBool(id.Quick),
		strconv.Itoa(id.Cells),
		strconv.Itoa(id.Scenarios),
		id.SeedDerivation,
		id.GoVersion,
	}
	if id.CC != "" {
		fields = append(fields, "cc="+id.CC)
	}
	h := fnv.New64a()
	for _, field := range append(fields, more...) {
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
	CellID
	Seed int64 `json:"seed"`

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
	Type string `json:"type"`
	CellID
	WallMS float64 `json:"wall_ms"`

	// Resumed is set when the cell was restored from a checkpoint instead
	// of re-run. It is run provenance, not measurement, so it lives in the
	// host-clock section: a resumed run's deterministic section stays
	// byte-identical to an uninterrupted run's.
	Resumed bool `json:"resumed,omitempty"`
}

// SweepStats closes a sweep's ledger block with host-side aggregates.
type SweepStats struct {
	Type       string  `json:"type"`
	Experiment string  `json:"experiment"`
	Workers    int     `json:"workers"`
	WallMS     float64 `json:"wall_ms"`
	CellWallMS float64 `json:"cell_wall_ms"`

	// Crash-tolerance provenance (zero on an uninterrupted run without
	// failures, so such a run's ledger omits both).
	SkippedCells int `json:"skipped_cells,omitempty"` // restored from checkpoint
	CellPanics   int `json:"cell_panics,omitempty"`
}

// CreateLedger opens (appending) or creates the ledger file at path. A
// run killed mid-flush leaves a torn final line; it is dropped first, so
// this run's block does not start in the middle of it. A file with a
// corrupt complete line is refused: no reader would get past that line
// to the block this run appends.
func CreateLedger(path string) (*Ledger, error) {
	l, _, err := openLog(path, false)
	return l, err
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

// AppendSweepStats stamps and appends a sweep's closing stats record.
func (l *Ledger) AppendSweepStats(s SweepStats) error {
	s.Type = TypeSweepStats
	return l.append(s)
}

// ReadLedger parses a JSONL ledger stream: every record in it, or the
// damage that makes it untrustworthy as a report's input.
func ReadLedger(r io.Reader) ([]Entry, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	entries, _, damage := Scan(data)
	if damage != nil {
		return nil, fmt.Errorf("ledger %w", damage)
	}
	return entries, nil
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
