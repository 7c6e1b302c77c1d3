package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"quiclab/internal/metrics"
)

var binary string

// TestMain builds the quictrace binary once; the tests drive it the way
// a user would, asserting the CLI contract (flag validation, exit
// codes, artifact contents).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "quictrace-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binary = filepath.Join(dir, "quictrace")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building quictrace: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// fastArgs keeps each invocation fast: one small object on a clean link.
func fastArgs(extra ...string) []string {
	args := []string{"-rate", "20", "-objects", "1", "-size", "50000", "-seed", "3"}
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

func TestMetricsDirWritesSeriesCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "met")
	stdout, stderr, code := run(t, fastArgs("-metrics", dir)...)
	if code != 0 {
		t.Fatalf("-metrics exited %d, stderr: %s", code, stderr)
	}
	path := filepath.Join(dir, "series.csv")
	if !strings.Contains(stdout, "wrote "+path) {
		t.Fatalf("stdout does not report the metrics file:\n%s", stdout)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	series, err := metrics.ReadCSV(f)
	if err != nil {
		t.Fatalf("series.csv does not parse: %v", err)
	}
	populated := 0
	for _, s := range series {
		if len(s.Points) > 0 {
			populated++
		}
	}
	if populated < 6 {
		t.Fatalf("series.csv has %d populated series, want >= 6", populated)
	}
}

func TestMetricsCadenceFlag(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "met")
	_, stderr, code := run(t, fastArgs("-metrics", dir, "-cadence", "5ms")...)
	if code != 0 {
		t.Fatalf("-cadence 5ms exited %d, stderr: %s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "series.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeCadenceRejected(t *testing.T) {
	_, stderr, code := run(t, fastArgs("-metrics", t.TempDir(), "-cadence", "-1ms")...)
	if code != 2 {
		t.Fatalf("-cadence -1ms exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "invalid -cadence") {
		t.Fatalf("stderr %q does not explain the invalid flag", stderr)
	}
}

func TestCadenceWithoutMetricsRejected(t *testing.T) {
	_, stderr, code := run(t, fastArgs("-cadence", "5ms")...)
	if code != 2 {
		t.Fatalf("-cadence without -metrics exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "-cadence requires -metrics") {
		t.Fatalf("stderr %q does not explain the missing flag", stderr)
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

func TestUnknownProtoRejected(t *testing.T) {
	_, stderr, code := run(t, fastArgs("-proto", "sctp")...)
	if code != 2 {
		t.Fatalf("unknown proto exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown -proto") {
		t.Fatalf("stderr %q does not explain the invalid flag", stderr)
	}
}

// TestCCFlagPicksTheController: -cc runs the named registry algorithm
// (its own state vocabulary shows in the state machine), "help" lists
// the registry, and an unknown name exits 2 listing it.
func TestCCFlagPicksTheController(t *testing.T) {
	stdout, stderr, code := run(t, fastArgs("-cc", "bbr")...)
	if code != 0 || !strings.Contains(stdout, "-> Startup") {
		t.Fatalf("-cc bbr exited %d without a BBR state machine:\n%s%s", code, stdout, stderr)
	}
	if stdout, _, code := run(t, "-cc", "help"); code != 0 || !strings.Contains(stdout, "bbr, bbr2, cubic, reno, vegas") {
		t.Fatalf("-cc help exited %d: %s", code, stdout)
	}
	if _, stderr, code := run(t, fastArgs("-cc", "nope")...); code != 2 || !strings.Contains(stderr, "registered: bbr") {
		t.Fatalf("-cc nope exited %d: %s", code, stderr)
	}
}

// TestFailedArtifactWriteExitsNonZero: an artifact whose write fails is
// reported as "write <what>: ..." with exit 1 and never announced as
// written. /dev/full accepts the open and fails every write; as a
// -metrics directory it fails earlier, at mkdir.
func TestFailedArtifactWriteExitsNonZero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for flag, what := range map[string]string{"-cwnd": "cwnd csv", "-qlog": "qlog", "-metrics": "metrics"} {
		stdout, stderr, code := run(t, fastArgs(flag, "/dev/full")...)
		if code != 1 {
			t.Errorf("%s /dev/full exited %d, want 1", flag, code)
		}
		if !strings.Contains(stderr, "write "+what+":") {
			t.Errorf("%s /dev/full: stderr %q does not name the failed write", flag, stderr)
		}
		if strings.Contains(stdout, "wrote /dev/full") {
			t.Errorf("%s /dev/full: stdout claims success:\n%s", flag, stdout)
		}
	}
}
