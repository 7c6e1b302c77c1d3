package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var (
	reportBin  string
	simBin     string
	bundleDir  string
	ledgerPath string
	// tourneyDir holds the checkpoint of a quick two-round cctournament
	// sweep, and tourneyOut what that quicbench run printed, "completed
	// in" line aside.
	tourneyDir string
	tourneyOut string
)

// TestMain builds quicreport, quicsim and quicbench once, then produces
// one shared bundle tree with a real quicsim run — the end-to-end
// acceptance path (simulate, bundle, render) — a ledger and a
// checkpoint.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "quicreport-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	reportBin = filepath.Join(dir, "quicreport")
	simBin = filepath.Join(dir, "quicsim")
	if out, err := exec.Command("go", "build", "-o", reportBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building quicreport: %v\n%s", err, out)
		os.Exit(1)
	}
	if out, err := exec.Command("go", "build", "-o", simBin, "../quicsim").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building quicsim: %v\n%s", err, out)
		os.Exit(1)
	}
	benchBin := filepath.Join(dir, "quicbench")
	if out, err := exec.Command("go", "build", "-o", benchBin, "../quicbench").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building quicbench: %v\n%s", err, out)
		os.Exit(1)
	}
	bundleDir = filepath.Join(dir, "bundles")
	sim := exec.Command(simBin,
		"-rate", "20", "-objects", "1", "-size", "50000",
		"-rounds", "3", "-seed", "3", "-bundle", bundleDir)
	if out, err := sim.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "quicsim -bundle: %v\n%s", err, out)
		os.Exit(1)
	}
	// A known-pathological ledger for the anomalies tests: a heavy-loss
	// run collapses cwnd, and a bulk transfer through a deep queue on a
	// slow link builds a standing queue (bufferbloat). Both sweeps append
	// to the same ledger file.
	ledgerPath = filepath.Join(dir, "runs.jsonl")
	for _, args := range [][]string{
		{"-rate", "10", "-loss", "8", "-size", "2000000", "-rounds", "3", "-ledger", ledgerPath},
		{"-rate", "5", "-queue", "262144", "-size", "12000000", "-rounds", "1", "-ledger", ledgerPath},
	} {
		if out, err := exec.Command(simBin, args...).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "quicsim %v: %v\n%s", args, err, out)
			os.Exit(1)
		}
	}
	tourneyDir = filepath.Join(dir, "tourney-ckpt")
	out, err := exec.Command(benchBin, "-exp", "cctournament", "-quick", "-rounds", "2", "-seed", "3",
		"-checkpoint", tourneyDir).Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "quicbench -exp cctournament: %v\n", err)
		os.Exit(1)
	}
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if !strings.Contains(line, " completed in ") {
			tourneyOut += line
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(reportBin, args...)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestBundleTreeComplete asserts the quicsim run produced full bundles:
// all four artifacts per cell, with >= 6 series and a valid DOT.
func TestBundleTreeComplete(t *testing.T) {
	cell := filepath.Join(bundleDir, "cli", "s0", "r0-0-QUIC")
	for _, f := range []string{"summary.json", "series.csv", "qlog.jsonl", "statemachine.dot"} {
		if _, err := os.Stat(filepath.Join(cell, f)); err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
	}
	csv, err := os.ReadFile(filepath.Join(cell, "series.csv"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(csv), "\n")[1:] {
		if i := strings.IndexByte(line, ','); i > 0 {
			names[line[:i]] = true
		}
	}
	if len(names) < 6 {
		t.Fatalf("series.csv has %d distinct series, want >= 6", len(names))
	}
	dot, err := os.ReadFile(filepath.Join(cell, "statemachine.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(dot), "digraph") {
		t.Fatalf("statemachine.dot is not a digraph:\n%s", dot)
	}
}

func TestTextReport(t *testing.T) {
	stdout, stderr, code := run(t, "report", bundleDir)
	if code != 0 {
		t.Fatalf("quicreport exited %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"== cli/s0/r0-0-QUIC",
		"cc.cwnd_bytes",
		"transport.srtt_ns",
		"comparison (Welch's t-test",
		"QUIC",
		"TCP",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("text report missing %q", want)
		}
	}
	if !strings.ContainsAny(stdout, "▁▂▃▄▅▆▇█") {
		t.Errorf("text report has no sparkline glyphs:\n%.500s", stdout)
	}
}

func TestTextReportDeterministic(t *testing.T) {
	a, _, _ := run(t, "report", bundleDir)
	b, _, _ := run(t, "report", bundleDir)
	if a != b {
		t.Fatal("two renders of the same tree differ")
	}
}

func TestSingleCellReport(t *testing.T) {
	stdout, stderr, code := run(t, "report", filepath.Join(bundleDir, "cli", "s0", "r0-0-QUIC"))
	if code != 0 {
		t.Fatalf("quicreport exited %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "cc.cwnd_bytes") {
		t.Fatalf("single-cell report missing series:\n%s", stdout)
	}
	if strings.Contains(stdout, "comparison (") {
		t.Fatalf("single-cell report should have no comparison table:\n%s", stdout)
	}
}

func TestHTMLReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.html")
	_, stderr, code := run(t, "report", "-html", out, bundleDir)
	if code != 0 {
		t.Fatalf("quicreport report -html exited %d, stderr: %s", code, stderr)
	}
	html, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "cc.cwnd_bytes", "comparison", "</html>"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}

func TestNoArgsRejected(t *testing.T) {
	_, stderr, code := run(t)
	if code != 2 {
		t.Fatalf("no args exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage:") {
		t.Fatalf("stderr %q should print usage", stderr)
	}
}

func TestBadWidthRejected(t *testing.T) {
	_, stderr, code := run(t, "report", "-width", "2", bundleDir)
	if code != 2 {
		t.Fatalf("-width 2 exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "invalid -width") {
		t.Fatalf("stderr %q does not explain the invalid flag", stderr)
	}
}

func TestMissingDirIsIOError(t *testing.T) {
	_, stderr, code := run(t, "report", filepath.Join(bundleDir, "no-such-dir"))
	if code != 1 {
		t.Fatalf("missing dir exited %d, want 1", code)
	}
	if stderr == "" {
		t.Fatal("missing dir produced no error message")
	}
}

func TestEmptyTreeIsError(t *testing.T) {
	_, stderr, code := run(t, "report", t.TempDir())
	if code != 1 {
		t.Fatalf("empty tree exited %d, want 1", code)
	}
	if !strings.Contains(stderr, "no bundles") {
		t.Fatalf("stderr %q does not explain the empty tree", stderr)
	}
}

// corruptCell copies one real cell into a fresh tree and lets the
// caller damage an artifact before rendering.
func corruptCell(t *testing.T, damage func(cell string)) string {
	t.Helper()
	src := filepath.Join(bundleDir, "cli", "s0", "r0-0-QUIC")
	root := t.TempDir()
	cell := filepath.Join(root, "cli", "s0", "r0-0-QUIC")
	if err := os.MkdirAll(cell, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cell, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(cell)
	return root
}

func TestCorruptSummaryIsIOError(t *testing.T) {
	root := corruptCell(t, func(cell string) {
		if err := os.WriteFile(filepath.Join(cell, "summary.json"), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	_, stderr, code := run(t, "report", root)
	if code != 1 {
		t.Fatalf("corrupt summary.json exited %d, want 1", code)
	}
	if stderr == "" {
		t.Fatal("corrupt summary.json produced no error message")
	}
}

func TestTruncatedSeriesIsIOError(t *testing.T) {
	root := corruptCell(t, func(cell string) {
		path := filepath.Join(cell, "series.csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Cut mid-record: the tail row loses columns.
		cut := len(data) * 2 / 3
		for cut > 0 && data[cut-1] == '\n' {
			cut--
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
	})
	_, stderr, code := run(t, "report", root)
	if code != 1 {
		t.Fatalf("truncated series.csv exited %d, want 1", code)
	}
	if stderr == "" {
		t.Fatal("truncated series.csv produced no error message")
	}
}

// TestAnomaliesView is the detector acceptance test: the pathological
// fixture sweeps must surface both the cwnd-collapse and bufferbloat
// detectors, ranked worst-first.
func TestAnomaliesView(t *testing.T) {
	stdout, stderr, code := run(t, "anomalies", ledgerPath)
	if code != 0 {
		t.Fatalf("anomalies exited %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "cwnd_collapse") {
		t.Errorf("anomaly view missing cwnd_collapse finding:\n%s", stdout)
	}
	if !strings.Contains(stdout, "bufferbloat") {
		t.Errorf("anomaly view missing bufferbloat finding:\n%s", stdout)
	}
	if !strings.Contains(stdout, "flagged") {
		t.Errorf("anomaly view missing the scan summary line:\n%s", stdout)
	}
	// Ranked worst-first: the sev= values on the numbered lines must be
	// non-increasing.
	last := 2.0
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasSuffix(f[0], ".") || !strings.HasPrefix(f[1], "sev=") {
			continue
		}
		var sev float64
		if _, err := fmt.Sscanf(f[1], "sev=%f", &sev); err != nil {
			t.Fatalf("bad severity field %q", f[1])
		}
		if sev > last {
			t.Fatalf("anomaly view not ranked worst-first:\n%s", stdout)
		}
		last = sev
	}
	if last == 2.0 {
		t.Fatalf("anomaly view has no ranked entries:\n%s", stdout)
	}
}

func TestAnomaliesDeterministic(t *testing.T) {
	a, _, _ := run(t, "anomalies", ledgerPath)
	b, _, _ := run(t, "anomalies", ledgerPath)
	if a != b {
		t.Fatal("two renders of the same ledger differ")
	}
}

// TestBudgetView renders the stall-attribution view of the shared
// bundle tree: bundles force profiling on, so every cell carries
// budgets, and the two arms produce a per-component Welch table.
func TestBudgetView(t *testing.T) {
	stdout, stderr, code := run(t, "budget", bundleDir)
	if code != 0 {
		t.Fatalf("budget exited %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"budget bar legend:",
		"== cli/s0/r0-0-QUIC",
		"conn 0",
		"handshake",
		"lifetime",
		"budget decomposition (Welch's t-test",
		"transfer",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("budget view missing %q:\n%.800s", want, stdout)
		}
	}
	// The stacked bars render inside brackets and must be non-empty.
	if !strings.Contains(stdout, "[") || !strings.Contains(stdout, "=") {
		t.Errorf("budget view has no stacked bars:\n%.800s", stdout)
	}
}

func TestBudgetViewDeterministic(t *testing.T) {
	a, _, _ := run(t, "budget", bundleDir)
	b, _, _ := run(t, "budget", bundleDir)
	if a != b {
		t.Fatal("two budget renders of the same tree differ")
	}
}

func TestBudgetSingleCellHasNoComparison(t *testing.T) {
	stdout, stderr, code := run(t, "budget", filepath.Join(bundleDir, "cli", "s0", "r0-0-QUIC"))
	if code != 0 {
		t.Fatalf("budget single cell exited %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "conn 0") {
		t.Fatalf("single-cell budget view missing budgets:\n%s", stdout)
	}
	if strings.Contains(stdout, "budget decomposition") {
		t.Fatalf("single-cell budget view should have no comparison table:\n%s", stdout)
	}
}

// TestBudgetWithoutBudgetsIsError: a tree whose summaries predate
// profiling renders nothing — that is an error, not silence.
func TestBudgetWithoutBudgetsIsError(t *testing.T) {
	root := corruptCell(t, func(cell string) {
		path := filepath.Join(cell, "summary.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var sum map[string]any
		if err := json.Unmarshal(data, &sum); err != nil {
			t.Fatal(err)
		}
		delete(sum, "budgets")
		out, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	_, stderr, code := run(t, "budget", root)
	if code != 1 {
		t.Fatalf("budget-less tree exited %d, want 1", code)
	}
	if !strings.Contains(stderr, "no budgets") {
		t.Fatalf("stderr %q does not explain the missing budgets", stderr)
	}
}

func TestAnomaliesMissingLedgerIsIOError(t *testing.T) {
	_, stderr, code := run(t, "anomalies", filepath.Join(t.TempDir(), "absent.jsonl"))
	if code != 1 {
		t.Fatalf("missing ledger exited %d, want 1", code)
	}
	if stderr == "" {
		t.Fatal("missing ledger produced no error message")
	}
}

func TestAnomaliesNotALedgerIsIOError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.jsonl")
	if err := os.WriteFile(path, []byte("this is not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := run(t, "anomalies", path)
	if code != 1 {
		t.Fatalf("non-ledger file exited %d, want 1", code)
	}
	if stderr == "" {
		t.Fatal("non-ledger file produced no error message")
	}
}

// TestAnomaliesReadsPastATornTail: a ledger whose last block was cut
// mid-line (the run was killed mid-flush) still reports every whole
// record — the torn final line is a crash artefact, not damage.
func TestAnomaliesReadsPastATornTail(t *testing.T) {
	whole, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := os.WriteFile(torn, whole[:len(whole)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	want, _, _ := run(t, "anomalies", ledgerPath)
	got, stderr, code := run(t, "anomalies", torn)
	if code != 0 {
		t.Fatalf("anomalies on a torn ledger exited %d, stderr: %s", code, stderr)
	}
	// The cut removed only the closing sweep_stats line; every cell is intact.
	if got != want {
		t.Fatalf("torn ledger renders differently from the whole one:\n%s\n---\n%s", got, want)
	}
}

// TestCheckpointsCountsDistinctCells: a checkpoint may hold a cell twice
// (a re-run after a failed restore is appended behind its original); the
// view counts what a resume restores, never "5/4".
func TestCheckpointsCountsDistinctCells(t *testing.T) {
	dir := t.TempDir()
	sim := exec.Command(simBin, "-rate", "20", "-objects", "1", "-size", "50000",
		"-rounds", "2", "-seed", "3", "-checkpoint", dir)
	if out, err := sim.CombinedOutput(); err != nil {
		t.Fatalf("quicsim -checkpoint: %v\n%s", err, out)
	}
	path := filepath.Join(dir, "cli.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	dup := lines[len(lines)-1] + "\n"
	if err := os.WriteFile(path, []byte(string(raw)+dup), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := run(t, "checkpoints", dir)
	if code != 0 {
		t.Fatalf("checkpoints exited %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "4/4 restorable") {
		t.Fatalf("a duplicated record was counted as a cell:\n%s", stdout)
	}
}

// timingFixture is a hand-written ledger: a fig2 sweep (two workers, one
// cell resumed, and the "attempts"/"retries" counts older writers
// recorded for a retried cell), a table6 sweep whose cell is unobserved
// (no PLT), and a second fig2 block appended by a later run.
const timingFixture = `{"type":"manifest","schema":1,"experiment":"fig2","base_seed":3,"rounds":2,"cells":3,"scenarios":1}
{"type":"cell","experiment":"fig2","scenario":0,"round":0,"proto":"QUIC","arm":0,"seed":11,"outcome":"completed","plt_seconds":2}
{"type":"cell","experiment":"fig2","scenario":0,"round":0,"proto":"TCP","arm":1,"seed":11,"outcome":"completed","plt_seconds":4}
{"type":"cell","experiment":"fig2","scenario":0,"round":1,"proto":"QUIC","arm":0,"seed":12,"outcome":"completed","plt_seconds":1.5}
{"type":"timing","scenario":0,"round":0,"proto":"QUIC","arm":0,"wall_ms":300}
{"type":"timing","scenario":0,"round":0,"proto":"TCP","arm":1,"wall_ms":100,"attempts":2}
{"type":"timing","scenario":0,"round":1,"proto":"QUIC","arm":0,"wall_ms":0,"resumed":true}
{"type":"sweep_stats","experiment":"fig2","workers":2,"wall_ms":250,"cell_wall_ms":400,"skipped_cells":1,"retries":1}
{"type":"manifest","schema":1,"experiment":"table6","base_seed":3,"rounds":1,"cells":1,"scenarios":1}
{"type":"cell","experiment":"table6","scenario":0,"round":0,"proto":"QUIC","arm":0,"seed":21,"outcome":"unobserved"}
{"type":"timing","scenario":0,"round":0,"proto":"QUIC","arm":0,"wall_ms":500}
{"type":"sweep_stats","experiment":"table6","workers":1,"wall_ms":520,"cell_wall_ms":500}
{"type":"manifest","schema":1,"experiment":"fig2","base_seed":3,"rounds":2,"cells":1,"scenarios":2}
{"type":"cell","experiment":"fig2","scenario":1,"round":0,"proto":"QUIC","arm":0,"seed":31,"outcome":"completed","plt_seconds":0.5}
{"type":"timing","scenario":1,"round":0,"proto":"QUIC","arm":0,"wall_ms":50}
{"type":"sweep_stats","experiment":"fig2","workers":1,"wall_ms":60,"cell_wall_ms":50}
`

// TestTimingView runs the timing view over timingFixture: sweeps in ledger
// order with shares of the total sweep wall summing to 100%, resumed
// cells counted but never ranked, a blank per-sim-second column where a
// cell has no PLT, and an error for a file with no timing records.
func TestTimingView(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, []byte(timingFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := run(t, "timing", path)
	if code != 0 {
		t.Fatalf("timing exited %d, stderr: %s", code, stderr)
	}
	parts := strings.Split(stdout, "\n\n")
	if len(parts) != 4 {
		t.Fatalf("want a summary line and three tables, got:\n%s", stdout)
	}
	if !strings.Contains(parts[0], "4 cells ran") || !strings.Contains(parts[0], "1 resumed") {
		t.Errorf("summary does not count 4 run cells and 1 resumed: %q", parts[0])
	}

	rows := strings.Split(strings.TrimSpace(parts[1]), "\n")[2:] // past the title and column header
	var order []string
	var shares float64
	for _, row := range rows {
		f := strings.Fields(row)
		order = append(order, f[0])
		var share float64
		fmt.Sscanf(f[3], "%f%%", &share)
		shares += share
	}
	if got := strings.Join(order, ","); got != "fig2,table6,fig2" {
		t.Errorf("sweeps in order %s, want fig2,table6,fig2 (ledger order)", got)
	}
	if shares < 99.9 || shares > 100.1 {
		t.Errorf("sweep shares sum to %.1f%%, want 100%%:\n%s", shares, parts[1])
	}
	if !strings.Contains(rows[0], "resumed=1") {
		t.Errorf("first fig2 sweep does not report its resumed cell: %q", rows[0])
	}
	if strings.Contains(stdout, "retr") {
		t.Errorf("the view reports retries, which no sweep makes:\n%s", stdout)
	}
	if strings.Contains(rows[1], "=") {
		t.Errorf("table6 sweep reports provenance it does not have: %q", rows[1])
	}

	// Scenario groups merge the two fig2 blocks only within a scenario.
	groups := strings.Split(strings.TrimSpace(parts[2]), "\n")[2:]
	if len(groups) != 3 || !strings.HasPrefix(groups[0], "table6") || !strings.Contains(groups[1], "400.0") {
		t.Errorf("scenario groups:\n%s", parts[2])
	}

	cells := strings.Split(strings.TrimSpace(parts[3]), "\n")[2:]
	if len(cells) != 4 {
		t.Fatalf("want the 4 cells that ran ranked (the resumed one is not):\n%s", parts[3])
	}
	if strings.Contains(parts[3], "s0/r1/QUIC#0") {
		t.Errorf("resumed cell ranked among the slowest:\n%s", parts[3])
	}
	if f := strings.Fields(cells[0]); f[0] != "table6" || len(f) != 4 || f[3] != "unobserved" {
		t.Errorf("unobserved cell should lead with blank plt and per-sim-second columns: %q", cells[0])
	}
	if f := strings.Fields(cells[1]); len(f) != 6 || f[4] != "2.000" || f[5] != "150.0" {
		t.Errorf("fig2 QUIC cell: want plt 2.000 s and 150.0 host-ms per sim-s: %q", cells[1])
	}

	noTiming := filepath.Join(t.TempDir(), "cells-only.jsonl")
	manifestAndCell := strings.Join(strings.SplitAfter(timingFixture, "\n")[:2], "")
	if err := os.WriteFile(noTiming, []byte(manifestAndCell), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = run(t, "timing", noTiming)
	if code != 1 || !strings.Contains(stderr, "no timing records") {
		t.Errorf("a ledger without timing records: exit %d, stderr %q; want 1 and \"no timing records\"", code, stderr)
	}
}

// TestRenderMatchesTheRunThatWroteIt: render re-runs the checkpointed
// tournament through the engine's resume path — every cell restored, the
// checkpoint untouched — and prints what the sweep that wrote it printed,
// from the directory and from the file alike.
func TestRenderMatchesTheRunThatWroteIt(t *testing.T) {
	file := filepath.Join(tourneyDir, "cctournament.ckpt")
	before, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, arg := range []string{tourneyDir, file} {
		stdout, stderr, code := run(t, "render", arg)
		if code != 0 {
			t.Fatalf("render %s exited %d (a cell re-ran?), stderr: %s", arg, code, stderr)
		}
		if stdout != tourneyOut {
			t.Fatalf("render %s printed:\n%s\nthe sweep printed:\n%s", arg, stdout, tourneyOut)
		}
	}
	if after, err := os.ReadFile(file); err != nil || string(after) != string(before) {
		t.Fatalf("render changed the checkpoint it read (err %v)", err)
	}
}

// TestRenderRefusesWhatCannotRestoreWhole: a checkpoint missing a cell, or
// one of an experiment outside the registry (quicsim's), is refused
// before anything runs.
func TestRenderRefusesWhatCannotRestoreWhole(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(tourneyDir, "cctournament.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(t.TempDir(), "cctournament.ckpt")
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	if err := os.WriteFile(short, []byte(strings.Join(lines[:len(lines)-1], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	cliDir := t.TempDir()
	sim := exec.Command(simBin, "-rate", "20", "-objects", "1", "-size", "50000",
		"-rounds", "1", "-seed", "3", "-checkpoint", cliDir)
	if out, err := sim.CombinedOutput(); err != nil {
		t.Fatalf("quicsim -checkpoint: %v\n%s", err, out)
	}
	for _, tc := range []struct{ arg, want string }{
		{short, fmt.Sprintf("%d/%d cells restorable", len(lines)-2, len(lines)-1)},
		{cliDir, `experiment "cli" is not in the registry`},
	} {
		stdout, stderr, code := run(t, "render", tc.arg)
		if code != 1 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("render %s: exit %d, stdout %q, stderr %q; want 1, nothing printed, and %q",
				tc.arg, code, stdout, stderr, tc.want)
		}
	}
}

// TestUsageErrorsExitTwo: an unknown view, the old flag spelling of a
// view, and a bundle-view flag on a ledger view each exit 2 with usage.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"nosuchview", ledgerPath},
		{"-anomalies", ledgerPath},
		{"timing", "-width", "80", ledgerPath},
		{"timing"},
	} {
		_, stderr, code := run(t, args...)
		if code != 2 || !strings.Contains(stderr, "usage:") {
			t.Errorf("quicreport %v: exit %d, stderr %q; want 2 and usage", args, code, stderr)
		}
	}
}
