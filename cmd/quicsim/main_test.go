package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"quiclab/internal/obs"
)

var binary string

// TestMain builds the quicsim binary once; the tests drive it the way a
// user would, asserting the CLI contract (flag validation, exit codes,
// worker-count-invariant output).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "quicsim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binary = filepath.Join(dir, "quicsim")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building quicsim: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// fastArgs keeps each invocation around a second: a small page on a
// clean link with few rounds.
func fastArgs(extra ...string) []string {
	args := []string{"-rate", "20", "-objects", "1", "-size", "50000", "-rounds", "2", "-seed", "3"}
	return append(args, extra...)
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

// runIn is run with a working directory, so relative -checkpoint paths
// land in a per-test dir.
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

// TestCheckpointResume runs the same checkpointed command twice in one
// directory: the second run must restore every round from the
// checkpoint and print the identical result.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	args := fastArgs("-checkpoint", "ckpt")

	out1, stderr, code := runIn(t, dir, args...)
	if code != 0 {
		t.Fatalf("first run exited %d, stderr: %s", code, stderr)
	}
	out2, stderr, code := runIn(t, dir, args...)
	if code != 0 {
		t.Fatalf("second run exited %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "round(s) from checkpoint") {
		t.Fatalf("second run did not resume from the checkpoint, stderr: %s", stderr)
	}
	if out1 != out2 {
		t.Fatalf("resumed output differs:\n-- first --\n%s-- second --\n%s", out1, out2)
	}
}

func TestParallelAuto(t *testing.T) {
	stdout, stderr, code := run(t, fastArgs("-parallel", "0")...)
	if code != 0 {
		t.Fatalf("-parallel 0 exited %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "QUIC mean PLT") {
		t.Fatalf("missing result line in output:\n%s", stdout)
	}
}

func TestParallelOutputMatchesSequential(t *testing.T) {
	seq, stderr, code := run(t, fastArgs("-parallel", "1")...)
	if code != 0 {
		t.Fatalf("-parallel 1 exited %d, stderr: %s", code, stderr)
	}
	par, stderr, code := run(t, fastArgs("-parallel", "4")...)
	if code != 0 {
		t.Fatalf("-parallel 4 exited %d, stderr: %s", code, stderr)
	}
	if seq != par {
		t.Fatalf("output differs between -parallel 1 and -parallel 4:\n-- seq --\n%s-- par --\n%s", seq, par)
	}
}

func TestParallelNegativeRejected(t *testing.T) {
	_, stderr, code := run(t, fastArgs("-parallel", "-1")...)
	if code != 2 {
		t.Fatalf("-parallel -1 exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "invalid -parallel") {
		t.Fatalf("stderr %q does not explain the invalid flag", stderr)
	}
}

func TestQueueNegativeRejected(t *testing.T) {
	_, stderr, code := run(t, fastArgs("-queue", "-1")...)
	if code != 2 {
		t.Fatalf("-queue -1 exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "invalid -queue") {
		t.Fatalf("stderr %q does not explain the invalid flag", stderr)
	}
}

// TestLedgerWritten runs a sweep with -ledger and checks the artifact:
// a parseable JSONL ledger whose deterministic section is identical
// across worker counts (the CLI-level view of the engine property).
func TestLedgerWritten(t *testing.T) {
	ledgerAt := func(workers int) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "runs.jsonl")
		_, stderr, code := run(t, fastArgs("-ledger", path, "-parallel", fmt.Sprint(workers))...)
		if code != 0 {
			t.Fatalf("-ledger exited %d, stderr: %s", code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Strip the host-clock record types, keeping the deterministic
		// manifest + cell section.
		var kept []string
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			var tag struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal([]byte(line), &tag); err != nil {
				t.Fatalf("bad ledger line %q: %v", line, err)
			}
			if tag.Type == "timing" || tag.Type == "sweep_stats" {
				continue
			}
			kept = append(kept, line)
		}
		return []byte(strings.Join(kept, "\n"))
	}
	seq := ledgerAt(1)
	if !strings.Contains(string(seq), `"type":"manifest"`) {
		t.Fatalf("ledger has no manifest:\n%s", seq)
	}
	if !strings.Contains(string(seq), `"type":"cell"`) {
		t.Fatalf("ledger has no cell records:\n%s", seq)
	}
	par := ledgerAt(4)
	if string(seq) != string(par) {
		t.Fatalf("deterministic ledger section differs between -parallel 1 and -parallel 4:\n-- seq --\n%s\n-- par --\n%s", seq, par)
	}
}

func TestLedgerBadPathFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "runs.jsonl")
	_, stderr, code := run(t, fastArgs("-ledger", path)...)
	if code != 1 {
		t.Fatalf("unwritable -ledger exited %d, want 1", code)
	}
	if !strings.Contains(stderr, "-ledger") {
		t.Fatalf("stderr %q does not mention -ledger", stderr)
	}
}

// TestLedgerSurvivesErrorExit: a run that fails after its sweep (here
// every bundle write, under a path whose parent is a file) exits 1 and
// still leaves its ledger block on disk.
func TestLedgerSurvivesErrorExit(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notadir"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runIn(t, dir, "-rounds", "1", "-ledger", "l.jsonl", "-bundle", "notadir/sub")
	if code != 1 || !strings.Contains(stderr, "bundle write failure") {
		t.Fatalf("unwritable -bundle exited %d, want 1; stderr: %s", code, stderr)
	}
	entries, err := obs.ReadLedgerFile(filepath.Join(dir, "l.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	manifests, cells := 0, 0
	for _, e := range entries {
		if e.Manifest != nil {
			manifests++
		}
		if e.Cell != nil {
			cells++
		}
	}
	if manifests != 1 || cells != 2 {
		t.Fatalf("ledger holds %d manifests and %d cell records, want 1 and 2", manifests, cells)
	}
}

// TestFailedRunsExitNonZero: runs abandoned at -cell-timeout still print
// the result lines, but the command exits 1 and says on stderr that the
// printed means count the failed runs as zeros.
func TestFailedRunsExitNonZero(t *testing.T) {
	// A 5 MB object keeps every run far longer than the timeout on any host.
	stdout, stderr, code := run(t, fastArgs("-size", "5000000", "-cell-timeout", "1ns")...)
	if code != 1 {
		t.Fatalf("every run timed out but the command exited %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "QUIC mean PLT") {
		t.Fatalf("result lines missing:\n%s", stdout)
	}
	if !strings.Contains(stderr, "run(s) failed") || !strings.Contains(stderr, "as zeros") {
		t.Fatalf("stderr does not count the failed runs or say they print as zeros: %s", stderr)
	}
}

func TestUnknownDeviceRejected(t *testing.T) {
	_, stderr, code := run(t, fastArgs("-device", "Pixel9000")...)
	if code != 2 {
		t.Fatalf("unknown device exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown -device") || !strings.Contains(stderr, "Desktop") {
		t.Fatalf("stderr %q should name the bad device and list known ones", stderr)
	}
}
