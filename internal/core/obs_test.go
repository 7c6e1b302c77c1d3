package core

import (
	"bytes"
	"encoding/json"
	"io"
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

	// Everything on: ledger (whose records carry the anomaly pass) +
	// bundles.
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

// cellRecords returns a ledger's cell records with the bundle path
// dropped, one JSON line each: what a ledger-only and a bundled sweep of
// one configuration must agree on byte for byte.
func cellRecords(t *testing.T, ledger []byte) []byte {
	t.Helper()
	entries, err := obs.ReadLedger(bytes.NewReader(ledger))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, en := range entries {
		if en.Cell == nil {
			continue
		}
		c := *en.Cell
		c.Bundle = ""
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// runLedgered runs one experiment at goldenOptions(2) with a ledger, the
// given bundle and checkpoint dirs (either may be empty), and returns the
// ledger bytes and the sweep's stats.
func runLedgered(t *testing.T, id, bundleDir, checkpointDir string) ([]byte, MatrixStats) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	var buf bytes.Buffer
	l := obs.NewLedger(&buf)
	o := goldenOptions(2)
	o.Ledger = l
	o.BundleDir = bundleDir
	o.CheckpointDir = checkpointDir
	var stats MatrixStats
	o.Stats = func(s MatrixStats) { stats = s }
	e.Run(io.Discard, o)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

// TestLedgerOnlyMatchesBundled: a sweep with a ledger but no bundles runs
// without the per-packet event log, yet writes the same cell records as a
// bundled sweep apart from the bundle path — the anomaly pass reads the
// counts every recorder folds. fig10 trips spurious storms; table6 runs
// at 1 % loss.
func TestLedgerOnlyMatchesBundled(t *testing.T) {
	for _, id := range []string{"fig10", "table6"} {
		t.Run(id, func(t *testing.T) {
			plain, _ := runLedgered(t, id, "", "")
			bundled, _ := runLedgered(t, id, t.TempDir(), "")
			a, b := cellRecords(t, plain), cellRecords(t, bundled)
			if len(a) == 0 {
				t.Fatal("no cell records")
			}
			if !bytes.Equal(a, b) {
				t.Errorf("ledger-only cell records differ from bundled ones:%s", diffHint(b, a))
			}
			if id == "fig10" && !bytes.Contains(a, []byte(obs.RuleSpuriousStorm)) {
				t.Errorf("fig10 ledger-only records carry no %s finding", obs.RuleSpuriousStorm)
			}
		})
	}

	// What prep leaves on a cell's Result under each sink.
	type instruments struct{ Events, Series, Budgets int }
	probe := func(o Options) instruments {
		m := NewMatrix("probe", o)
		sc := lossyScenario()
		sc.TraceEvents = false
		var got instruments
		addCell(m, Cell{Scenario: m.NextScenario()}, &got, nil,
			func(seed int64, tp *tbPool) (instruments, *Result) {
				res := m.prep(sc).runPLT(QUIC, seed, tp)
				return instruments{len(res.ServerTrace.Events), res.Metrics.Len(), len(res.Budgets)}, &res
			})
		m.Run()
		return got
	}
	for name, o := range map[string]Options{
		"ledger":     {Ledger: obs.NewLedger(io.Discard)},
		"checkpoint": {CheckpointDir: t.TempDir()},
		"bundle":     {BundleDir: t.TempDir()},
	} {
		got := probe(o)
		if got.Series == 0 || got.Budgets == 0 {
			t.Errorf("%s sweep: cell ran without metrics or profiling: %+v", name, got)
		}
		if logged := got.Events > 0; logged != (name == "bundle") {
			t.Errorf("%s sweep: cell logged %d events (only bundles hold the event log)", name, got.Events)
		}
	}
}

// TestResumeAcrossBundleModes: a checkpoint written with bundles on
// resumes a run without them, and one written without bundles resumes a
// run with them (the bundles already on disk), each writing the ledger
// section a fresh run of the resuming mode writes.
func TestResumeAcrossBundleModes(t *testing.T) {
	bundles, bundledCk, plainCk := t.TempDir(), t.TempDir(), t.TempDir()
	freshBundled, _ := runLedgered(t, "fig10", bundles, bundledCk)
	freshPlain, _ := runLedgered(t, "fig10", "", plainCk)
	for _, tc := range []struct {
		name, bundleDir, ckpt string
		want                  []byte
	}{
		{"bundled checkpoint, no bundles", "", bundledCk, freshPlain},
		{"plain checkpoint, bundles", bundles, plainCk, freshBundled},
	} {
		got, stats := runLedgered(t, "fig10", tc.bundleDir, tc.ckpt)
		if stats.SkippedCells != stats.Cells {
			t.Errorf("%s: %d of %d cells resumed", tc.name, stats.SkippedCells, stats.Cells)
		}
		if w, g := stripTimingLines(t, tc.want), stripTimingLines(t, got); !bytes.Equal(w, g) {
			t.Errorf("%s: resumed ledger section differs from a fresh run's:%s", tc.name, diffHint(w, g))
		}
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
	// The ledger turns profiling on, so the deterministic section being
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
