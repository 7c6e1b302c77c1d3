package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleManifest() Manifest {
	return Manifest{
		SweepIdentity: SweepIdentity{
			Experiment:     "fig2",
			BaseSeed:       42,
			Rounds:         3,
			Quick:          true,
			Cells:          12,
			Scenarios:      2,
			SeedDerivation: "fnv1a+splitmix64(base,experiment,scenario,round)/v1",
			GoVersion:      "go1.22.0",
		},
		GOMAXPROCS: 8,
		BundleDir:  "out/fig2",
	}
}

// TestLedgerRoundTrip appends a full sweep block and reads it back.
func TestLedgerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(&buf)
	if err := l.AppendManifest(sampleManifest()); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCell(CellRecord{
		Experiment: "fig2", CellID: CellID{Scenario: 1, Proto: "quic"},
		Seed: 99, Outcome: OutcomeCompleted, PLTSeconds: 1.25, Bundle: "out/fig2/s1/r0-0-QUIC",
		Anomalies: []Finding{{Rule: RuleCwndCollapse, Severity: 0.9, Detail: "x"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCell(CellRecord{Experiment: "fig2", CellID: CellID{Scenario: 1, Round: 1, Proto: "tcp"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTiming(TimingRecord{CellID: CellID{Scenario: 1, Proto: "quic"}, WallMS: 12.5}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSweepStats(SweepStats{Experiment: "fig2", Workers: 4, WallMS: 100}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("got %d entries, want 5", len(entries))
	}
	m := entries[0].Manifest
	if m == nil {
		t.Fatal("entry 0 is not a manifest")
	}
	if m.Schema != LedgerSchema || m.Experiment != "fig2" {
		t.Errorf("manifest schema=%d experiment=%q", m.Schema, m.Experiment)
	}
	if m.ConfigDigest == "" || !strings.HasPrefix(m.ConfigDigest, "fnv1a:") {
		t.Errorf("manifest digest %q not stamped", m.ConfigDigest)
	}
	c := entries[1].Cell
	if c == nil || c.Outcome != OutcomeCompleted || c.Seed != 99 || len(c.Anomalies) != 1 {
		t.Errorf("cell record mangled: %+v", c)
	}
	// A cell appended without an outcome defaults to unobserved.
	if c2 := entries[2].Cell; c2 == nil || c2.Outcome != OutcomeUnobserved {
		t.Errorf("empty outcome not defaulted: %+v", c2)
	}
	if entries[3].Timing == nil || entries[3].Timing.WallMS != 12.5 {
		t.Errorf("timing record mangled: %+v", entries[3].Timing)
	}
	if entries[4].Stats == nil || entries[4].Stats.Workers != 4 {
		t.Errorf("stats record mangled: %+v", entries[4].Stats)
	}
}

// TestLedgerDeterministicBytes: the same records produce the same bytes.
func TestLedgerDeterministicBytes(t *testing.T) {
	write := func() []byte {
		var buf bytes.Buffer
		l := NewLedger(&buf)
		l.AppendManifest(sampleManifest())
		l.AppendCell(CellRecord{Experiment: "fig2", CellID: CellID{Proto: "quic"}, Seed: 7, Outcome: OutcomeCompleted})
		l.Close()
		return buf.Bytes()
	}
	if a, b := write(), write(); !bytes.Equal(a, b) {
		t.Errorf("same records, different bytes:\n%s\n---\n%s", a, b)
	}
}

// TestManifestDigest: stable for identical configs — across code
// versions too, ledgers on disk carry it — and sensitive to every
// deterministic field.
func TestManifestDigest(t *testing.T) {
	base := sampleManifest()
	base.Schema = LedgerSchema
	if got, want := base.Digest(), "fnv1a:3a0a16a739c8fdf3"; got != want {
		t.Fatalf("digest %s, but existing ledgers of this config say %s", got, want)
	}
	mutations := []func(*Manifest){
		func(m *Manifest) { m.Experiment = "fig6a" },
		func(m *Manifest) { m.BaseSeed++ },
		func(m *Manifest) { m.Rounds++ },
		func(m *Manifest) { m.Quick = !m.Quick },
		func(m *Manifest) { m.Cells++ },
		func(m *Manifest) { m.Scenarios++ },
		func(m *Manifest) { m.CC = "bbr" },
		func(m *Manifest) { m.SeedDerivation = "other/v2" },
		func(m *Manifest) { m.GoVersion = "go1.99" },
		func(m *Manifest) { m.GOMAXPROCS++ },
	}
	for i, mut := range mutations {
		m := base
		mut(&m)
		if m.Digest() == base.Digest() {
			t.Errorf("mutation %d did not change the digest", i)
		}
	}
	// BundleDir is a host path, not part of the run config.
	m := base
	m.BundleDir = "/elsewhere"
	if m.Digest() != base.Digest() {
		t.Error("BundleDir must not affect the config digest")
	}
}

// TestReadLedgerErrors covers malformed input and forward compatibility.
func TestReadLedgerErrors(t *testing.T) {
	if _, err := ReadLedger(strings.NewReader("{not json\n")); err == nil {
		t.Error("malformed JSON line: want error")
	}
	if _, err := ReadLedger(strings.NewReader(`{"experiment":"x"}` + "\n")); err == nil {
		t.Error("missing type: want error")
	}
	// Unknown types (newer schema) are skipped, blank lines ignored.
	in := `{"type":"future_record","x":1}` + "\n\n" + `{"type":"sweep_stats","workers":2}` + "\n"
	entries, err := ReadLedger(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Stats == nil {
		t.Errorf("got %d entries, want 1 sweep_stats", len(entries))
	}
}

// TestCreateLedgerAppends: reopening a ledger file appends a second
// block after the first.
func TestCreateLedgerAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for i := 0; i < 2; i++ {
		l, err := CreateLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendManifest(sampleManifest()); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Manifest == nil || entries[1].Manifest == nil {
		t.Fatalf("got %d entries, want 2 manifests", len(entries))
	}
}

// TestLedgerStickyError: the first write error sticks, later appends
// fail fast, and Err/Close both report it.
func TestLedgerStickyError(t *testing.T) {
	l := NewLedger(failWriter{})
	// bufio only surfaces the error once the buffer fills or flushes;
	// force it with a flush via Close, then verify stickiness on a
	// fresh ledger using a record big enough to overflow the buffer.
	if err := l.AppendManifest(sampleManifest()); err != nil {
		// Fine: error surfaced immediately.
		if l.Err() == nil {
			t.Fatal("append failed but Err() is nil")
		}
		return
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close on failing writer: want error")
	}
	if l.Err() == nil {
		t.Fatal("Err() nil after failed flush")
	}
}

// TestCreateLedgerDropsTornTail: a run killed mid-flush leaves a torn
// final line. The next run's block must not start inside it — that would
// make the whole file unreadable, the later, complete block included.
func TestCreateLedgerDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	appendBlock := func() {
		t.Helper()
		l, err := CreateLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		l.AppendManifest(sampleManifest())
		l.AppendCell(CellRecord{Experiment: "fig2", CellID: CellID{Proto: "QUIC"}, Outcome: OutcomeCompleted})
		l.AppendSweepStats(SweepStats{Experiment: "fig2", Workers: 2})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendBlock()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(len(whole)-40)); err != nil { // killed mid-flush
		t.Fatal(err)
	}
	appendBlock()
	entries, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatalf("ledger unreadable after a torn tail and a second run: %v", err)
	}
	if len(entries) != 5 || entries[2].Manifest == nil || entries[4].Stats == nil {
		t.Fatalf("got %d entries, want the first run's 2 whole records then the second run's 3", len(entries))
	}

	// A file that is nothing but a torn line starts over.
	if err := os.WriteFile(path, []byte(`{"type":"mani`), 0o644); err != nil {
		t.Fatal(err)
	}
	appendBlock()
	if entries, err = ReadLedgerFile(path); err != nil || len(entries) != 3 {
		t.Fatalf("after a file-long torn line: %d entries, err %v; want 3, nil", len(entries), err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, os.ErrClosed }

func TestReadLedgerFileMissing(t *testing.T) {
	if _, err := ReadLedgerFile(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Error("missing file: want error")
	}
}
