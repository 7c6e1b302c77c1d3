package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"quiclab/internal/core"
	"quiclab/internal/metrics"
	"quiclab/internal/obs"
	"quiclab/internal/trace"
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

// TestFailedRunsExitNonZero: runs that fail to complete are filed under
// their reason and still print the result lines. A transport failure is a
// measured outcome (exit 0); a panicked run — a wedged simulation spends
// its event budget and panics — makes the command exit 1 and say on
// stderr that the printed means count the failed runs as zeros.
func TestFailedRunsExitNonZero(t *testing.T) {
	// Every packet is lost: no run can complete before its deadline.
	stdout, stderr, code := run(t, fastArgs("-loss", "100")...)
	if code != 0 {
		t.Fatalf("runs that measured a failure exited %d, want 0; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "QUIC mean PLT") {
		t.Fatalf("result lines missing:\n%s", stdout)
	}
	if !strings.Contains(stdout, "WARNING: 4/4 runs failed to complete (deadline=4)") {
		t.Fatalf("failed runs not filed under their reason:\n%s", stdout)
	}
	// Every sample is clamped to the deadline, so Welch's test has no
	// variance to work with.
	if !strings.Contains(stdout, "Welch's test could not run (zero variance)") {
		t.Fatalf("identical samples did not say the test could not run:\n%s", stdout)
	}

	var errb strings.Builder
	if code := failedRunsExit(&errb, core.MatrixStats{Panics: 1}); code != 1 {
		t.Fatalf("a panicked run exits %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "run(s) failed") || !strings.Contains(errb.String(), "as zeros") {
		t.Fatalf("stderr does not count the failed runs or say they print as zeros: %s", errb.String())
	}
	if code := failedRunsExit(io.Discard, core.MatrixStats{}); code != 0 {
		t.Fatalf("a sweep without panics exits %d, want 0", code)
	}
}

// oneRoundArgs is the single-run form: one round, a bundle per arm.
func oneRoundArgs(bundle string, extra ...string) []string {
	args := []string{"-rate", "20", "-objects", "1", "-size", "50000", "-rounds", "1", "-seed", "3", "-bundle", bundle}
	return append(args, extra...)
}

// armDirs are the two bundle directories a one-round run writes.
func armDirs(bundle string) []string {
	return []string{
		filepath.Join(bundle, "cli", "s0", "r0-0-QUIC"),
		filepath.Join(bundle, "cli", "s0", "r0-1-TCP"),
	}
}

// TestOneRoundBundle: -rounds 1 -bundle is the single-run path. Welch's
// test cannot run on one round and says so instead of printing a
// p-value; each arm's bundle holds a parseable series.csv with populated
// series and a qlog.jsonl carrying every cwnd sample.
func TestOneRoundBundle(t *testing.T) {
	bundle := filepath.Join(t.TempDir(), "one")
	stdout, stderr, code := run(t, oneRoundArgs(bundle)...)
	if code != 0 {
		t.Fatalf("-rounds 1 exited %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Welch's test could not run (one round; it needs two)") || strings.Contains(stdout, "p=") {
		t.Fatalf("one round printed a test result:\n%s", stdout)
	}
	for _, dir := range armDirs(bundle) {
		f, err := os.Open(filepath.Join(dir, "series.csv"))
		if err != nil {
			t.Fatal(err)
		}
		series, err := metrics.ReadCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: series.csv does not parse: %v", dir, err)
		}
		populated := 0
		for _, s := range series {
			if len(s.Points) > 0 {
				populated++
			}
		}
		if populated < 6 {
			t.Fatalf("%s: series.csv has %d populated series, want >= 6", dir, populated)
		}

		q, err := os.Open(filepath.Join(dir, "qlog.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		events, err := trace.ReadJSONL(q)
		q.Close()
		if err != nil {
			t.Fatalf("%s: qlog.jsonl does not parse: %v", dir, err)
		}
		samples := 0
		for _, e := range events {
			if e.Type == trace.EventCwndSample {
				samples++
			}
		}
		if samples == 0 {
			t.Fatalf("%s: qlog.jsonl holds no cwnd_sample events", dir)
		}
	}
}

// TestCCFlagPicksTheController: -cc runs the named registry algorithm
// on both arms (its own state vocabulary shows in each bundle's state
// machine), "help" lists the registry, and an unknown name exits 2
// listing it.
func TestCCFlagPicksTheController(t *testing.T) {
	bundle := filepath.Join(t.TempDir(), "bbr")
	if _, stderr, code := run(t, oneRoundArgs(bundle, "-cc", "bbr")...); code != 0 {
		t.Fatalf("-cc bbr exited %d, stderr: %s", code, stderr)
	}
	for _, dir := range armDirs(bundle) {
		dot, err := os.ReadFile(filepath.Join(dir, "statemachine.dot"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(dot), `"Startup"`) {
			t.Fatalf("-cc bbr: %s names no BBR state:\n%s", dir, dot)
		}
	}
	if stdout, _, code := run(t, "-cc", "help"); code != 0 || !strings.Contains(stdout, "bbr, bbr2, cubic, reno, vegas") {
		t.Fatalf("-cc help exited %d: %s", code, stdout)
	}
	if _, stderr, code := run(t, fastArgs("-cc", "nope")...); code != 2 || !strings.Contains(stderr, "registered: bbr") {
		t.Fatalf("-cc nope exited %d: %s", code, stderr)
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

// TestUnknownDeviceRejectedOneRound: the single-run form rejects a bad
// -device the same way, before it writes any bundle.
func TestUnknownDeviceRejectedOneRound(t *testing.T) {
	bundle := filepath.Join(t.TempDir(), "one")
	_, stderr, code := run(t, oneRoundArgs(bundle, "-device", "Pixel9000")...)
	if code != 2 {
		t.Fatalf("unknown device exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown -device") || !strings.Contains(stderr, "Desktop") {
		t.Fatalf("stderr %q should name the bad device and list known ones", stderr)
	}
	if _, err := os.Stat(bundle); !os.IsNotExist(err) {
		t.Fatalf("a rejected run left %s behind (stat: %v)", bundle, err)
	}
}
