package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"quiclab/internal/obs"
)

var binary string

// TestMain builds the quicbench binary once; the tests drive it the way
// an operator would, asserting the CLI contract (flag validation, exit
// codes, the -ledger artifact, the profiles).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "quicbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binary = filepath.Join(dir, "quicbench")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building quicbench: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(binary, args...)
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

// runIn is run with a working directory. The crash-tolerance tests use
// relative -bundle/-ledger/-checkpoint paths under a per-test dir so
// every artifact — including the bundle paths embedded in ledger
// records — is byte-identical across runs in different directories.
func runIn(t *testing.T, dir string, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(binary, args...)
	cmd.Dir = dir
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

// stripWall drops the one wall-clock line quicbench prints per
// experiment ("[fig2 completed in 1.234s]") so output comparisons see
// only the deterministic rendering.
func stripWall(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.Contains(line, " completed in ") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// stripHostClockLines removes the host-clock ledger records (timing and
// sweep stats) leaving the deterministic section, mirroring the
// engine-level golden-ledger comparison.
func stripHostClockLines(t *testing.T, data []byte) []byte {
	t.Helper()
	var b []byte
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("unparseable ledger line: %v\n%s", err, line)
		}
		if probe.Type == obs.TypeTiming || probe.Type == obs.TypeSweepStats {
			continue
		}
		b = append(b, line...)
	}
	return b
}

// readTree loads every file under root keyed by relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	tree := make(map[string][]byte)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		tree[rel] = data
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	return tree
}

// TestKillResumeByteIdentical is the CLI-level crash-recovery
// invariant: SIGKILL a checkpointed sweep mid-flight, re-run the exact
// same command, and the rendered output, the deterministic ledger
// section, and the whole bundle tree must be byte-identical to an
// uninterrupted run.
func TestKillResumeByteIdentical(t *testing.T) {
	args := []string{"-exp", "fig2", "-quick", "-rounds", "3", "-seed", "3", "-parallel", "2",
		"-bundle", "bundles", "-ledger", "runs.jsonl", "-checkpoint", "ckpt"}

	refDir := t.TempDir()
	refOut, stderr, code := runIn(t, refDir, args...)
	if code != 0 {
		t.Fatalf("reference run exited %d, stderr: %s", code, stderr)
	}

	// Start the same sweep elsewhere and SIGKILL it after two cells
	// have reported progress — no drain, no cleanup, checkpoint fsyncs
	// are all that survives.
	workDir := t.TempDir()
	cmd := exec.Command(binary, append(append([]string{}, args...), "-progress")...)
	cmd.Dir = workDir
	cmd.Stdout = io.Discard
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(pipe)
	cells := 0
	for sc.Scan() {
		if strings.Contains(sc.Text(), "sc=") {
			if cells++; cells == 2 {
				cmd.Process.Kill()
				break
			}
		}
	}
	if cells < 2 {
		cmd.Wait()
		t.Fatal("sweep finished before it could be killed; nothing to resume")
	}
	go func() {
		for sc.Scan() {
		}
	}()
	cmd.Wait() // the kill is the expected "error"

	// The identical command again: restores the checkpointed cells and
	// completes the rest.
	gotOut, stderr2, code := runIn(t, workDir, args...)
	if code != 0 {
		t.Fatalf("resume run exited %d, stderr: %s", code, stderr2)
	}
	if !strings.Contains(stderr2, "cells resumed=") {
		t.Fatalf("resume run did not report restored cells, stderr: %s", stderr2)
	}
	if stripWall(gotOut) != stripWall(refOut) {
		t.Errorf("resumed stdout differs from uninterrupted run:\n-- resumed --\n%s-- reference --\n%s",
			stripWall(gotOut), stripWall(refOut))
	}

	refLedger, err := os.ReadFile(filepath.Join(refDir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	gotLedger, err := os.ReadFile(filepath.Join(workDir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gotLedger), `"type"`) {
		t.Fatal("resumed ledger is empty")
	}
	if rl, gl := stripHostClockLines(t, refLedger), stripHostClockLines(t, gotLedger); string(rl) != string(gl) {
		t.Errorf("deterministic ledger section differs:\n-- resumed --\n%s-- reference --\n%s", gl, rl)
	}

	refTree := readTree(t, filepath.Join(refDir, "bundles"))
	gotTree := readTree(t, filepath.Join(workDir, "bundles"))
	if len(refTree) == 0 {
		t.Fatal("reference run wrote no bundles")
	}
	for rel, want := range refTree {
		got, ok := gotTree[rel]
		if !ok {
			t.Errorf("resumed bundle tree missing %s", rel)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("bundle %s differs after resume", rel)
		}
	}
	for rel := range gotTree {
		if _, ok := refTree[rel]; !ok {
			t.Errorf("resumed bundle tree has extra file %s", rel)
		}
	}
}

// TestSigintDrainsResumable covers the graceful path: one SIGINT
// drains in-flight cells, exits 130 with a resume hint, and the same
// command resumes from the checkpoint.
func TestSigintDrainsResumable(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig2", "-quick", "-rounds", "4", "-seed", "3",
		"-parallel", "1", "-checkpoint", "ckpt"}

	cmd := exec.Command(binary, append(append([]string{}, args...), "-progress")...)
	cmd.Dir = dir
	cmd.Stdout = io.Discard
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(pipe)
	var all strings.Builder
	signalled := false
	for sc.Scan() {
		all.WriteString(sc.Text())
		all.WriteString("\n")
		if !signalled && strings.Contains(sc.Text(), "sc=") {
			cmd.Process.Signal(os.Interrupt)
			signalled = true
		}
	}
	if !signalled {
		cmd.Wait()
		t.Fatal("sweep finished before the interrupt could be sent")
	}
	werr := cmd.Wait()
	ee, ok := werr.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("interrupted run exited %v, want exit code 130; stderr:\n%s", werr, all.String())
	}
	for _, want := range []string{"draining in-flight cells", "re-run the same command to resume"} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("interrupted run stderr missing %q:\n%s", want, all.String())
		}
	}

	stdout, stderr, code := runIn(t, dir, args...)
	if code != 0 {
		t.Fatalf("resume after SIGINT exited %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "cells resumed=") {
		t.Fatalf("resume after SIGINT restored nothing, stderr: %s", stderr)
	}
	if !strings.Contains(stdout, "== fig2") {
		t.Fatalf("resume after SIGINT produced no rendered output:\n%s", stdout)
	}
}

// TestShardMergeCLI runs a sweep as two shards, merges their
// checkpoints with -merge, and resumes a full run from the merged
// file; the rendered output must match an unsharded run.
func TestShardMergeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("shard/merge determinism is covered at the engine layer; skipping CLI flow in -short")
	}
	base := []string{"-exp", "fig2", "-quick", "-rounds", "2", "-seed", "3"}

	refDir := t.TempDir()
	refOut, stderr, code := runIn(t, refDir, append(append([]string{}, base...), "-checkpoint", "ckpt")...)
	if code != 0 {
		t.Fatalf("reference run exited %d, stderr: %s", code, stderr)
	}

	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		shardArgs := append(append([]string{}, base...),
			"-shard", fmt.Sprintf("%d/2", i), "-checkpoint", fmt.Sprintf("s%d", i))
		_, stderr, code := runIn(t, dir, shardArgs...)
		if code != 0 {
			t.Fatalf("shard %d/2 exited %d, stderr: %s", i, code, stderr)
		}
		if !strings.Contains(stderr, fmt.Sprintf("running shard %d/2", i)) {
			t.Fatalf("shard %d/2 did not announce itself, stderr: %s", i, stderr)
		}
	}

	stdout, stderr, code := runIn(t, dir, "-merge", "-checkpoint", "merged", "s0", "s1")
	if code != 0 {
		t.Fatalf("-merge exited %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "merged fig2.ckpt: 6 cells from 2 shard checkpoint(s)") {
		t.Fatalf("-merge did not report the stitched checkpoint:\n%s", stdout)
	}

	resumeArgs := append(append([]string{}, base...), "-resume-from", "merged", "-checkpoint", "ckpt")
	out, stderr, code := runIn(t, dir, resumeArgs...)
	if code != 0 {
		t.Fatalf("resume from merged shards exited %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "cells resumed=") {
		t.Fatalf("resume from merged shards restored nothing, stderr: %s", stderr)
	}
	if stripWall(out) != stripWall(refOut) {
		t.Errorf("sharded+merged+resumed output differs from unsharded run:\n-- merged --\n%s-- reference --\n%s",
			stripWall(out), stripWall(refOut))
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	_, stderr, code := run(t, "-exp", "fig99")
	if code != 2 {
		t.Fatalf("unknown -exp exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown experiment") {
		t.Fatalf("stderr %q does not name the bad experiment", stderr)
	}
}

func TestLedgerBadPathFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "runs.jsonl")
	_, stderr, code := run(t, "-exp", "fig2", "-quick", "-ledger", path)
	if code != 1 {
		t.Fatalf("unwritable -ledger exited %d, want 1", code)
	}
	if !strings.Contains(stderr, "-ledger") {
		t.Fatalf("stderr %q does not mention -ledger", stderr)
	}
}

// TestFailedCellsExitNonZero: a sweep whose cells all exceed
// -cell-timeout still prints its tables, but exits 1 and says on stderr
// that the tables count the failed cells as zeros.
func TestFailedCellsExitNonZero(t *testing.T) {
	stdout, stderr, code := run(t, "-exp", "fig2", "-quick", "-rounds", "1", "-parallel", "1", "-cell-timeout", "1ns")
	if code != 1 {
		t.Fatalf("every cell timed out but the sweep exited %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "completed in") {
		t.Fatalf("tables missing:\n%s", stdout)
	}
	if !strings.Contains(stderr, "timed-out=") || !strings.Contains(stderr, "cell(s) failed") ||
		!strings.Contains(stderr, "as zeros") {
		t.Fatalf("stderr does not count the failed cells or say they print as zeros: %s", stderr)
	}
}

// TestProfilesWrittenOnFailedExit: a run that exits non-zero after the
// profiler started (here an unwritable -ledger, exit 1) still writes
// both profiles — the exit code travels back to main instead of
// os.Exit skipping the deferred writers.
func TestProfilesWrittenOnFailedExit(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	ledger := filepath.Join(dir, "no", "such", "dir", "runs.jsonl")
	_, stderr, code := run(t, "-exp", "fig2", "-quick", "-cpuprofile", cpu, "-memprofile", mem, "-ledger", ledger)
	if code != 1 {
		t.Fatalf("unwritable -ledger exited %d, want 1; stderr: %s", code, stderr)
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			t.Fatalf("%s is not gzip: %v", filepath.Base(path), err)
		}
		data, err := io.ReadAll(zr)
		f.Close()
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %d bytes after gunzip, err %v", filepath.Base(path), len(data), err)
		}
	}
}
