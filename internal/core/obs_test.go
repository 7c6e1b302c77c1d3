package core

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"quiclab/internal/obs"
)

// Tests for the sweep-observability integration: ledger and anomaly
// findings must both be passive (identical experiment output and
// bundle trees with every layer enabled) and the ledger's deterministic
// section must be byte-identical at any worker count.

// stripTimingLines drops the host-clock record types (timing,
// sweep_stats) from a JSONL ledger, leaving only the deterministic
// manifest + cell section.
func stripTimingLines(t *testing.T, ledger []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, line := range bytes.Split(ledger, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var tag struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &tag); err != nil {
			t.Fatalf("bad ledger line %q: %v", line, err)
		}
		if tag.Type == obs.TypeTiming || tag.Type == obs.TypeSweepStats {
			continue
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestObservabilityIsPassive enables every observability layer at once
// — ledger, anomaly pass, bundles — and asserts the rendered
// experiment output and the bundle tree are byte-identical to a run
// with none of it (bundles only, for the tree comparison).
func TestObservabilityIsPassive(t *testing.T) {
	e, ok := ByID("fig2")
	if !ok {
		t.Fatal("fig2 not registered")
	}

	// Reference: no observability at all.
	var plain bytes.Buffer
	e.Run(&plain, goldenOptions(4))

	// Bundles only (pre-existing feature, known passive).
	bundleOnly := t.TempDir()
	var withBundles bytes.Buffer
	o := goldenOptions(4)
	o.BundleDir = bundleOnly
	e.Run(&withBundles, o)

	// Everything on: ledger (which forces the anomaly pass) + bundles.
	fullDir := t.TempDir()
	var ledgerBuf bytes.Buffer
	ledger := obs.NewLedger(&ledgerBuf)
	var withObs bytes.Buffer
	o = goldenOptions(4)
	o.BundleDir = fullDir
	o.Ledger = ledger
	e.Run(&withObs, o)
	if err := ledger.Close(); err != nil {
		t.Fatalf("ledger: %v", err)
	}

	if !bytes.Equal(plain.Bytes(), withBundles.Bytes()) {
		t.Errorf("bundle writing changed rendered output:%s", diffHint(plain.Bytes(), withBundles.Bytes()))
	}
	if !bytes.Equal(plain.Bytes(), withObs.Bytes()) {
		t.Errorf("observability changed rendered output:%s", diffHint(plain.Bytes(), withObs.Bytes()))
	}

	a, b := readTree(t, bundleOnly), readTree(t, fullDir)
	if len(a) == 0 {
		t.Fatal("no bundle files written")
	}
	if len(a) != len(b) {
		t.Fatalf("bundle tree size differs: %d files without obs, %d with", len(a), len(b))
	}
	for rel, data := range a {
		got, ok := b[rel]
		if !ok {
			t.Errorf("bundle file %s missing from observed run", rel)
			continue
		}
		if !bytes.Equal(data, got) {
			t.Errorf("bundle file %s differs between plain and observed runs", rel)
		}
	}
}

// TestLedgerContents checks the ledger block one sweep writes: manifest
// identity, one cell record per cell in registration order with real
// seeds and outcomes, bundle paths that exist, timing records, and a
// closing stats record.
func TestLedgerContents(t *testing.T) {
	e, _ := ByID("fig2")
	dir := t.TempDir()
	var buf bytes.Buffer
	ledger := obs.NewLedger(&buf)
	o := goldenOptions(2)
	o.BundleDir = dir
	o.Ledger = ledger
	var out bytes.Buffer
	e.Run(&out, o)
	if err := ledger.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := obs.ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || entries[0].Manifest == nil {
		t.Fatal("ledger does not start with a manifest")
	}
	m := entries[0].Manifest
	if m.Experiment != "fig2" || m.BaseSeed != 3 || !m.Quick || m.Rounds != 2 {
		t.Errorf("manifest config: %+v", m)
	}
	if m.SeedDerivation != SeedDerivation {
		t.Errorf("manifest seed derivation %q, want %q", m.SeedDerivation, SeedDerivation)
	}
	if m.GoVersion == "" || m.GOMAXPROCS == 0 || m.ConfigDigest == "" {
		t.Errorf("manifest provenance incomplete: %+v", m)
	}

	var cells, timings, stats, completed int
	for _, en := range entries[1:] {
		switch {
		case en.Cell != nil:
			c := en.Cell
			cells++
			if c.Experiment != "fig2" || c.Seed == 0 || c.Outcome == "" {
				t.Errorf("cell record incomplete: %+v", c)
			}
			if want := CellSeed(3, c.Experiment, c.Scenario, c.Round); c.Seed != want {
				t.Errorf("cell %d/%d seed %d, want derived %d", c.Scenario, c.Round, c.Seed, want)
			}
			if c.Outcome == obs.OutcomeCompleted {
				completed++
				if c.PLTSeconds <= 0 {
					t.Errorf("completed cell without PLT: %+v", c)
				}
			}
			if c.Bundle != "" {
				if _, err := os.Stat(c.Bundle); err != nil {
					t.Errorf("cell bundle path %s: %v", c.Bundle, err)
				}
			}
		case en.Timing != nil:
			timings++
		case en.Stats != nil:
			stats++
			if en.Stats.Workers != 2 || en.Stats.WallMS <= 0 {
				t.Errorf("sweep stats: %+v", en.Stats)
			}
		case en.Manifest != nil:
			t.Error("second manifest in a single-sweep ledger")
		}
	}
	if cells == 0 || cells != m.Cells {
		t.Errorf("ledger has %d cell records, manifest says %d", cells, m.Cells)
	}
	if completed == 0 {
		t.Error("no cell completed")
	}
	if timings != cells {
		t.Errorf("%d timing records for %d cells", timings, cells)
	}
	if stats != 1 {
		t.Errorf("%d sweep_stats records, want 1", stats)
	}
}

// TestLedgerDeterminismAcrossWorkers is the focused version of the
// golden-suite property: the deterministic ledger section is
// byte-identical at workers 1, 4 and 8.
func TestLedgerDeterminismAcrossWorkers(t *testing.T) {
	e, _ := ByID("fig10") // reordering pathology: exercises anomaly findings in cell records
	run := func(workers int) []byte {
		var buf bytes.Buffer
		l := obs.NewLedger(&buf)
		o := goldenOptions(workers)
		o.Ledger = l
		var out bytes.Buffer
		e.Run(&out, o)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := stripTimingLines(t, run(1))
	if len(base) == 0 {
		t.Fatal("empty deterministic ledger section")
	}
	// The ledger forces profiling, so the deterministic section being
	// compared across worker counts must carry stall budgets — the
	// workers-1/4/8 determinism proof covers them.
	if !bytes.Contains(base, []byte(`"budgets"`)) {
		t.Error("ledger cell records carry no stall budgets")
	}
	for _, workers := range []int{4, 8} {
		got := stripTimingLines(t, run(workers))
		if !bytes.Equal(base, got) {
			t.Errorf("deterministic ledger section differs at %d workers:%s",
				workers, diffHint(base, got))
		}
	}
}
