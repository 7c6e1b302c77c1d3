package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"quiclab/internal/obs"
	"quiclab/internal/quic"
	"quiclab/internal/tcp"
)

// TestFairnessTableLegacyShape pins RunFairnessScenarios on Table 4's
// scenarios: the scenario labels, per-scenario arm counts and flow naming
// the table has always rendered, deterministic for a fixed seed.
func TestFairnessTableLegacyShape(t *testing.T) {
	o := Options{Quick: true, Rounds: 2, Seed: 5}
	table4 := func() []FairnessRow {
		return RunFairnessScenarios(o, "table4", 2, 6*time.Second, []FairnessScenario{
			{"QUIC vs TCP", table4Path, ProtoArms(QUIC, TCP)},
			{"QUIC vs TCPx2", table4Path, ProtoArms(QUIC, TCP, TCP)},
			{"QUIC vs TCPx4", table4Path, ProtoArms(QUIC, TCP, TCP, TCP, TCP)},
		})
	}
	rows := table4()
	if !reflect.DeepEqual(rows, table4()) {
		t.Fatal("RunFairnessScenarios is not deterministic for a fixed seed")
	}
	wantFlows := map[string]int{"QUIC vs TCP": 2, "QUIC vs TCPx2": 3, "QUIC vs TCPx4": 5}
	got := map[string]int{}
	for _, r := range rows {
		got[r.Scenario]++
	}
	if !reflect.DeepEqual(got, wantFlows) {
		t.Fatalf("scenario shape changed: got %v, want %v", got, wantFlows)
	}
	if rows[0].Flow != "QUIC 1" || rows[1].Flow != "TCP 1" || rows[4].Flow != "TCP 2" {
		t.Fatalf("legacy flow naming changed: %q, %q, %q", rows[0].Flow, rows[1].Flow, rows[4].Flow)
	}
}

// hashTree fingerprints a directory: every file's relative path and
// content hash, sorted — byte-identical trees hash identically. A
// directory that was never created (no cell wrote a bundle) is the
// empty tree; the comparison still catches any future divergence if
// tournament cells start emitting bundles.
func hashTree(t *testing.T, dir string) string {
	t.Helper()
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return ""
	}
	var entries []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		h := fnv.New64a()
		h.Write(data)
		entries = append(entries, fmt.Sprintf("%s %x %d", rel, h.Sum64(), len(data)))
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", dir, err)
	}
	sort.Strings(entries)
	return strings.Join(entries, "\n")
}

// TestTournamentDeterminism extends the golden sweep's guarantee to
// the tournament's full observability surface: rendered bracket, run
// ledger, bundle tree and checkpoint-restored re-runs must all be
// byte-identical at 1, 4 and 8 workers.
func TestTournamentDeterminism(t *testing.T) {
	e, ok := ByID("cctournament")
	if !ok {
		t.Fatal("cctournament is not registered")
	}
	type run struct {
		out    []byte
		ledger []byte
		tree   string
		ckpt   string
	}
	runs := map[int]run{}
	for _, workers := range []int{1, 4, 8} {
		dir := t.TempDir()
		var buf, lbuf bytes.Buffer
		o := Options{
			Quick: true, Rounds: 2, Seed: 3, Parallelism: workers,
			BundleDir:     filepath.Join(dir, "bundles"),
			CheckpointDir: filepath.Join(dir, "ckpt"),
			Ledger:        obs.NewLedger(&lbuf),
		}
		e.Run(&buf, o)
		if err := o.Ledger.Close(); err != nil {
			t.Fatalf("ledger at %d workers: %v", workers, err)
		}
		// The manifest embeds the absolute bundle path, which is
		// per-TempDir; normalise it so only real content can differ.
		ledger := bytes.ReplaceAll(lbuf.Bytes(), []byte(dir), []byte("$DIR"))
		runs[workers] = run{
			out:    buf.Bytes(),
			ledger: stripTimingLines(t, ledger),
			tree:   hashTree(t, filepath.Join(dir, "bundles")),
			ckpt:   filepath.Join(dir, "ckpt"),
		}
	}
	for _, workers := range []int{4, 8} {
		if !bytes.Equal(runs[workers].out, runs[1].out) {
			t.Errorf("rendered bracket at %d workers differs from sequential:%s",
				workers, diffHint(runs[1].out, runs[workers].out))
		}
		if !bytes.Equal(runs[workers].ledger, runs[1].ledger) {
			t.Errorf("ledger deterministic section at %d workers differs from sequential:%s",
				workers, diffHint(runs[1].ledger, runs[workers].ledger))
		}
		if runs[workers].tree != runs[1].tree {
			t.Errorf("bundle tree at %d workers differs from sequential:\nseq:\n%s\npar:\n%s",
				workers, runs[1].tree, runs[workers].tree)
		}
	}

	// A resume from the sequential run's checkpoint must restore every
	// cell (zero re-runs) and still render the identical bracket. This
	// runs both shapes: re-issuing the same -checkpoint dir (salvage from
	// the run's own file — tournament cells checkpoint without a
	// CellRecord, so restore must not demand one) and quicreport render's
	// ResumeFrom without a checkpoint of its own.
	ckptFile := filepath.Join(runs[1].ckpt, "cctournament"+obs.CheckpointExt)
	before, err := os.ReadFile(ckptFile)
	if err != nil {
		t.Fatal(err)
	}
	resumes := []struct {
		name string
		opts Options
	}{
		{"same-checkpoint-dir", Options{
			Quick: true, Rounds: 2, Seed: 3, Parallelism: 4,
			CheckpointDir: runs[1].ckpt,
		}},
		{"resume-only", Options{
			Quick: true, Rounds: 2, Seed: 3, Parallelism: 4,
			ResumeFrom: runs[1].ckpt,
		}},
	}
	for _, rc := range resumes {
		var buf bytes.Buffer
		var st MatrixStats
		rc.opts.Stats = func(s MatrixStats) { st = s }
		e.Run(&buf, rc.opts)
		if st.SkippedCells != st.Cells || st.Cells == 0 {
			t.Errorf("%s: restored %d of %d cells, want all", rc.name, st.SkippedCells, st.Cells)
		}
		if !bytes.Equal(buf.Bytes(), runs[1].out) {
			t.Errorf("%s: checkpoint-restored bracket differs from the original:%s",
				rc.name, diffHint(runs[1].out, buf.Bytes()))
		}
	}
	// Restoring from the file it is writing must not re-append cells.
	after, err := os.ReadFile(ckptFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("checkpoint file grew on same-dir resume: %d -> %d bytes", len(before), len(after))
	}
}

// TestFairnessArmsGovernSenders pins whom an arm's controller governs: its
// sender. Every receiver runs the calibrated controller, whatever the arm
// or the sweep's -cc names — a receiver's controller paces the little it
// sends, and that alone moves a full-scale bracket. The cell's Result
// carries every flow's server budget.
func TestFairnessArmsGovernSenders(t *testing.T) {
	sweep := table4Path
	sweep.CCAlgo = "reno" // as Options.CC leaves a prepped scenario
	sweep.Profile = true
	arms := []FairArm{{Proto: QUIC, CC: "bbr"}, {Proto: TCP, CC: "vegas"}, {Proto: QUIC}}
	flows, res := sweep.runFairness(arms, 2*time.Second, 1, nil)
	if !res.Completed || len(res.Budgets) != len(arms) {
		t.Errorf("completed=%v with %d budgets, want a completed run with one per flow", res.Completed, len(res.Budgets))
	}
	calibrated := map[Proto]string{}
	protos := []Proto{QUIC, TCP}
	_, ref := table4Path.runFairness(ProtoArms(protos...), time.Second, 1, nil)
	for i, fl := range ref.tb.flows {
		calibrated[protos[i]] = ctrlTypes(fl.qsrv, fl.tsrv)[0]
	}
	for i, fl := range res.tb.flows {
		senders, receivers := ctrlTypes(fl.qsrv, fl.tsrv), ctrlTypes(fl.qcli, fl.tcli)
		if len(senders) == 0 || len(receivers) == 0 {
			t.Fatalf("flow %d: no live connections", i)
		}
		for _, r := range receivers {
			if r != calibrated[arms[i].Proto] {
				t.Errorf("flow %d (%s): receiver runs %s, want the calibrated %s", i, flows[i].CC, r, calibrated[arms[i].Proto])
			}
		}
		if got := senders[0]; got == calibrated[arms[i].Proto] {
			t.Errorf("flow %d: sender runs the calibrated controller, want %s", i, flows[i].CC)
		}
	}
	if flows[2].CC != "reno" {
		t.Errorf("an arm on the default runs %q, want the scenario's reno", flows[2].CC)
	}
}

// ctrlTypes lists the controller types of an endpoint's live connections.
func ctrlTypes(q *quic.Endpoint, tc *tcp.Endpoint) []string {
	var out []string
	if q != nil {
		for _, c := range q.Conns {
			out = append(out, fmt.Sprintf("%T", c.CC()))
		}
	}
	if tc != nil {
		for _, c := range tc.Conns {
			out = append(out, fmt.Sprintf("%T", c.CC()))
		}
	}
	return out
}
