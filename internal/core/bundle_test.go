package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"quiclab/internal/device"
	"quiclab/internal/web"
)

func bundleScenario() Scenario {
	return Scenario{
		Seed:     3,
		RateMbps: 20,
		Page:     web.Page{NumObjects: 1, ObjectSize: 200 << 10},
		Device:   device.Desktop,
	}
}

// TestWriteBundleRoundTrip writes one cell's bundle from a real run and
// checks every artifact: summary JSON fields, >= 6 series in the CSV, a
// non-empty qlog, and a well-formed DOT state machine.
func TestWriteBundleRoundTrip(t *testing.T) {
	sc := bundleScenario().instrumented()
	res := sc.RunPLT(QUIC, 3)
	if !res.Completed {
		t.Fatalf("run did not complete: %v", res.FailureReason)
	}
	if res.Metrics == nil {
		t.Fatalf("instrumented run carried no collector")
	}

	cell := Cell{Experiment: "bundletest", Scenario: 0, Round: 0, Proto: QUIC}
	dir := CellDir(t.TempDir(), cell)
	if err := WriteBundle(dir, cell, 3, res); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{BundleSummaryFile, BundleSeriesFile, BundleQlogFile, BundleDOTFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
	}

	sum, err := ReadBundleSummary(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Experiment != "bundletest" || sum.Proto != "QUIC" || !sum.Completed {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.PLTSeconds <= 0 {
		t.Fatalf("summary PLT = %v", sum.PLTSeconds)
	}
	if sum.Trace.PacketsSent == 0 {
		t.Fatalf("summary trace roll-up empty")
	}
	if len(sum.Series) < 6 {
		t.Fatalf("summary lists %d series, want >= 6", len(sum.Series))
	}

	series, err := ReadBundleSeries(dir)
	if err != nil {
		t.Fatal(err)
	}
	populated := 0
	for _, sd := range series {
		if len(sd.Points) > 0 {
			populated++
		}
	}
	if populated < 6 {
		t.Fatalf("series.csv has %d populated series, want >= 6", populated)
	}

	qlog, err := os.ReadFile(filepath.Join(dir, BundleQlogFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.TrimSpace(qlog)) == 0 {
		t.Fatalf("qlog stream is empty")
	}

	dot, err := os.ReadFile(filepath.Join(dir, BundleDOTFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(dot), "digraph") {
		t.Fatalf("statemachine.dot does not start with digraph: %q", dot[:min(40, len(dot))])
	}
	if bytes.Count(dot, []byte("{")) != bytes.Count(dot, []byte("}")) {
		t.Fatalf("statemachine.dot braces unbalanced")
	}
	if !bytes.Contains(dot, []byte("SlowStart")) {
		t.Fatalf("statemachine.dot mentions no SlowStart state:\n%s", dot)
	}
}

// TestMetricsCollectionIsPassive pins the tentpole's determinism
// contract at the RunPLT level: a run with metrics + tracing enabled
// must complete with the identical PLT as an uninstrumented run of the
// same seed.
func TestMetricsCollectionIsPassive(t *testing.T) {
	for _, proto := range []Proto{QUIC, TCP} {
		sc := bundleScenario()
		plain := sc.RunPLT(proto, 7)
		inst := sc.instrumented().RunPLT(proto, 7)
		if plain.PLT != inst.PLT {
			t.Fatalf("%v: instrumented PLT %v != plain PLT %v (collection perturbed the run)",
				proto, inst.PLT, plain.PLT)
		}
		if inst.Metrics.Len() == 0 {
			t.Fatalf("%v: instrumented run collected no series", proto)
		}
	}
}

// TestExpectedSeriesPresent pins the series an instrumented run
// registers, by name and in registration order, which is the order a
// bundle exports them in: the link series, then the controller's (BBR
// keeps no ssthresh), then the transport base's, then the flow windows.
// And it asserts the wired emission sites actually fire: after a lossy
// transfer (loss exercises the drop and recovery paths) every series
// carries samples but the uplink's drops, which need a dropped ack.
func TestExpectedSeriesPresent(t *testing.T) {
	links := []string{"link.down0.queue_bytes", "link.down0.drops_total", "link.up0.queue_bytes", "link.up0.drops_total"}
	cubic := []string{"cc.cwnd_bytes", "cc.ssthresh_bytes", "cc.pacing_rate_bps"}
	bbr := []string{"cc.cwnd_bytes", "cc.pacing_rate_bps"}
	base := []string{"transport.srtt_ns", "transport.rttvar_ns", "transport.bytes_in_flight", "flow.conn_window_bytes"}
	sc := bundleScenario().instrumented()
	sc.LossPct = 1
	for _, c := range []struct {
		proto Proto
		algo  string
		cc    []string
	}{{QUIC, "", cubic}, {TCP, "", cubic}, {QUIC, "bbr", bbr}, {TCP, "bbr", bbr}} {
		sc.CCAlgo = c.algo
		res := sc.RunPLT(c.proto, 11)
		want := slices.Concat(links, c.cc, base)
		if c.proto == QUIC {
			want = append(want, "flow.stream_window_bytes")
		}
		var got []string
		for _, s := range res.Metrics.All() {
			got = append(got, s.Name())
			if s.Len() == 0 && s.Name() != "link.up0.drops_total" {
				t.Errorf("%v %q: series %s has no samples", c.proto, c.algo, s.Name())
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%v %q: series registered\n  %v\nwant\n  %v", c.proto, c.algo, got, want)
		}
	}
}

// TestBundleDeterminismAcrossWorkers runs the obs experiment with
// bundles enabled at 1, 4, and 8 workers and asserts (a) the rendered
// output is byte-identical to the committed golden — instrumentation
// does not perturb measurements — and (b) every bundle file is
// byte-identical across worker counts.
func TestBundleDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("bundle determinism sweep runs the obs matrix three times")
	}
	e, ok := ByID("obs")
	if !ok {
		t.Fatal("obs experiment not registered")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "obs.golden"))
	if err != nil {
		t.Fatal(err)
	}

	trees := map[int]map[string][]byte{}
	for _, workers := range []int{1, 4, 8} {
		o := goldenOptions(workers)
		o.BundleDir = filepath.Join(t.TempDir(), "bundles")
		var buf bytes.Buffer
		e.Run(&buf, o)
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Fatalf("workers=%d: bundled output differs from golden:%s",
				workers, diffHint(golden, buf.Bytes()))
		}
		trees[workers] = readTree(t, o.BundleDir)
		if len(trees[workers]) == 0 {
			t.Fatalf("workers=%d: no bundle files written", workers)
		}
	}
	base := trees[1]
	for _, workers := range []int{4, 8} {
		tree := trees[workers]
		if len(tree) != len(base) {
			t.Fatalf("workers=%d: %d bundle files, sequential wrote %d", workers, len(tree), len(base))
		}
		for path, data := range base {
			got, ok := tree[path]
			if !ok {
				t.Fatalf("workers=%d: bundle file %s missing", workers, path)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("workers=%d: bundle file %s differs from sequential run", workers, path)
			}
		}
	}
}

// readTree loads every file under root keyed by relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCellDirLayout pins the bundle directory naming scheme quicreport
// walks.
func TestCellDirLayout(t *testing.T) {
	c := Cell{Experiment: "fig7", Scenario: 2, Round: 1, Proto: TCP, Arm: 1}
	got := CellDir("/tmp/x", c)
	want := filepath.Join("/tmp/x", "fig7", "s2", "r1-1-TCP")
	if got != want {
		t.Fatalf("CellDir = %q, want %q", got, want)
	}
}
