package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"quiclab/internal/core"
	"quiclab/internal/device"
)

func TestFast5(t *testing.T) {
	if got := fast5([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5}); got != 3 {
		t.Errorf("fast5 of 1..9 = %v, want 3 (mean of 1..5)", got)
	}
	if got := fast5([]float64{4, 2}); got != 3 {
		t.Errorf("fast5 of two values = %v, want their mean", got)
	}
	if got := fast5(nil); got != 0 {
		t.Errorf("fast5 of nothing = %v", got)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for p, want := range map[float64]float64{0: 10, 50: 30, 90: 46, 100: 50} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	base := outcome{plt: time.Second, end: 2 * time.Second, completed: true, counters: [5]int{1, 2, 3, 4, 5}}
	seen := map[uint64]string{base.digest(): "base"}
	vary := map[string]func(*outcome){
		"plt":       func(o *outcome) { o.plt++ },
		"end":       func(o *outcome) { o.end++ },
		"completed": func(o *outcome) { o.completed = false },
		"counter":   func(o *outcome) { o.counters[4]++ },
	}
	for name, f := range vary {
		o := base
		f(&o)
		if prev, dup := seen[o.digest()]; dup {
			t.Errorf("changing %s gives the digest of %s", name, prev)
		}
		seen[o.digest()] = name
	}
	o := base
	o.wall = time.Hour // host time is not part of the answer
	if o.digest() != base.digest() {
		t.Error("digest depends on host time")
	}
}

// One lap of every workload with all checks on; a second lap must
// reproduce the first.
func TestEveryWorkloadLapsClean(t *testing.T) {
	for _, w := range workloads {
		r := newRunner(w, 1, t.TempDir())
		first, err := r.lap()
		if err != nil {
			t.Fatal(err)
		}
		if len(first.cells) == 0 || first.wall <= 0 || first.slowest <= 0 || first.simTime <= 0 || first.mallocs == 0 {
			t.Errorf("%s: empty lap: %d cells, wall %v, slowest %v, sim %v, %d mallocs",
				w.name, len(first.cells), first.wall, first.slowest, first.simTime, first.mallocs)
		}
		for _, f := range r.verify(first, nil) {
			t.Errorf("lap 1: %s", f.msg)
		}
		if w.sweep {
			r.par = 2 // the engine promises the same bytes at any worker count
		}
		second, err := r.lap()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range r.verify(second, &first) {
			t.Errorf("lap 2: %s", f.msg)
		}
	}
}

// A wrong answer must land in failed and turn the exit code.
func TestTamperedResultsFail(t *testing.T) {
	w, _ := workloadByName("instrumented")
	r := newRunner(w, 1, t.TempDir())
	good, err := r.lap()
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(f func(o *outcome)) lapResult {
		l := good
		l.cells = append([]outcome(nil), good.cells...)
		f(&l.cells[2])
		return l
	}
	cases := map[string]struct {
		lap  lapResult
		want string
	}{
		"PLT under the floor": {tamper(func(o *outcome) { o.plt = time.Millisecond }), "beats the path's floor"},
		"lap 2 differs":       {tamper(func(o *outcome) { o.counters[0]++ }), "differs from lap 1"},
		"not passive":         {tamper(func(o *outcome) { o.end++ }), "instruments moved the answer"},
		"no events":           {tamper(func(o *outcome) { o.events = 0 }), "empty event log"},
		"budget gap":          {tamper(func(o *outcome) { o.budgetGap = 7 }), "do not sum"},
		"unreadable bundle":   {tamper(func(o *outcome) { o.bundleErr = "no such file" }), "bundle: no such file"},
		"incomplete":          {tamper(func(o *outcome) { o.completed = false }), "did not complete"},
	}
	for name, c := range cases {
		fails := r.verify(c.lap, &good)
		if failedCells(fails) != 1 {
			t.Errorf("%s: %d failed cells, want 1: %v", name, failedCells(fails), fails)
			continue
		}
		found := false
		for _, f := range fails {
			found = found || (f.cell == 2 && strings.Contains(f.msg, c.want))
		}
		if !found {
			t.Errorf("%s: no failure on cell 2 mentioning %q: %v", name, c.want, fails)
		}
		res := workloadResult{}
		res.record(len(c.lap.cells), fails)
		if res.Failed != 1 || res.Attempted != len(good.cells) || exitCode([]workloadResult{res}) == 0 {
			t.Errorf("%s: failed %d of %d, exit %d", name, res.Failed, res.Attempted, exitCode([]workloadResult{res}))
		}
	}
	clean := workloadResult{}
	clean.record(len(good.cells), r.verify(good, &good))
	if clean.Failed != 0 || exitCode([]workloadResult{clean}) != 0 {
		t.Errorf("untampered lap: failed %d, exit %d: %v", clean.Failed, exitCode([]workloadResult{clean}), clean.Failures)
	}
}

func TestSweepLapFailures(t *testing.T) {
	r := &runner{w: workload{name: "sweep", sweep: true}}
	ok := lapResult{cells: []outcome{{ledgerLine: []byte(`{"a":1}`), ledgerOK: true}}, output: 7}
	if fails := r.verify(ok, &ok); len(fails) != 0 {
		t.Fatalf("clean sweep lap failed: %v", fails)
	}
	bad := lapResult{cells: []outcome{{ledgerLine: []byte(`{"a":2}`), ledgerOK: false}}, output: 8, extra: []string{"fig8: 1 panics"}}
	fails := r.verify(bad, &ok)
	if got := failedCells(fails); got != 3 { // the cell, the engine error, the rendered output
		t.Errorf("%d failures, want 3: %v", got, fails)
	}
}

// Rung 3 is only a measurement of the same work if the hand-built
// testbed gives RunPLT's answer.
func TestBedReproducesRunPLT(t *testing.T) {
	w := workload{name: "probe", scenarios: sweepProbe}
	for _, c := range w.cells(3) {
		want := c.sc.RunPLT(c.proto, c.seed)
		b := buildBed(c)
		got := time.Duration(-1)
		b.load(func(d time.Duration) { got = d; b.sim.Stop() }, func(string) { b.sim.Stop() })
		b.sim.RunUntil(bedDeadline)
		if !want.Completed || got != want.PLT {
			t.Errorf("%s: hand-built testbed PLT %v, RunPLT %v (completed %v)", c.name, got, want.PLT, want.Completed)
		}
	}
}

// The whole ladder on a two-cell workload: every per-layer metric comes
// out, counts are exact, shares stay under one.
func TestLadder(t *testing.T) {
	w := workload{name: "tiny", scenarios: func() []core.Scenario {
		return []core.Scenario{{RateMbps: 10, Page: page(2, 20<<10), Device: device.Desktop}}
	}}
	var tr tracer
	o := options{seed: 1, duration: time.Millisecond, par: 2, tmp: t.TempDir()}
	res, err := tr.ladder(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("ladder failed: %v", res.Failures)
	}
	for _, spec := range perLayer {
		m, ok := res.Metrics[spec.Name]
		if !ok || m.Unit != spec.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %+v (present %v), want a number in %s", spec.Name, m, ok, spec.Unit)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, spec lists %d", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"sim.events_per_cell", "netem.pkts_per_cell", "trace.events_per_cell", "metrics.points_per_cell"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	again, err := new(tracer).ladder(w, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range perLayer {
		if spec.Unit == "count" && res.Metrics[spec.Name] != again.Metrics[spec.Name] {
			t.Errorf("%s is a count but moved between runs: %v then %v", spec.Name, res.Metrics[spec.Name].Value, again.Metrics[spec.Name].Value)
		}
	}
	path := filepath.Join(t.TempDir(), "out", "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var spans []span
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("spans file: %v, %d spans", err, len(spans))
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.EndNS < s.StartNS || s.Parent >= s.ID || s.Workload != "tiny" {
			t.Fatalf("bad span %+v", s)
		}
	}
	for _, want := range []string{"ladder", "rung0.sim", "rung1.netem", "rung2.cc", "rung3a.testbed", "rung3b.traced", "rung4.runplt", "rung5.all", "rung5.bundle", "rung6.both"} {
		if !names[want] {
			t.Errorf("no %s span", want)
		}
	}
}

func synthetic(seed int64, digest string, metrics map[string]float64) runRecord {
	m := map[string]metric{}
	for k, v := range metrics {
		m[k] = metric{Value: v}
	}
	return runRecord{Seed: seed, Machine: machine{GoVersion: "go1.24", GOMAXPROCS: 2, CPUModel: "cpu"},
		Workloads: []workloadResult{{Workload: "bulk", SimDigest: digest, Metrics: m}}}
}

func TestCompare(t *testing.T) {
	runs := func(values ...float64) []runRecord {
		var out []runRecord
		for _, v := range values {
			out = append(out, synthetic(1, "d", map[string]float64{"cells_per_s": v, "allocs_per_cell": 1000}))
		}
		return out
	}
	verdict := func(out string, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == "bulk" && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return "no row"
	}
	cases := []struct {
		name           string
		parent, change []runRecord
		want           string
		code           int
	}{
		{"steady", runs(100, 101, 99, 100), runs(100, 99, 101, 100), verdictOK, 0},
		{"slower by three tenths", runs(100, 101, 99, 100), runs(70, 71, 69, 70), verdictRegressed, 1},
		{"faster", runs(100, 101, 99, 100), runs(120, 121, 119, 120), verdictOK, 0},
		{"too noisy to tell", runs(100, 140, 70, 120), runs(95, 130, 75, 110), verdictUnresolved, 0},
		{"noisy but every run better", runs(100, 140, 70, 120), runs(150, 190, 145, 170), verdictOK, 0},
		{"noisy and every run worse", runs(100, 140, 110, 120), runs(50, 60, 55, 65), verdictRegressed, 1},
		{"single runs, within the bound", runs(100), runs(95), verdictOK, 0},
		{"single runs, regressed", runs(100), runs(70), verdictRegressed, 1},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		code := compareRuns(&buf, c.parent, c.change)
		if got := verdict(buf.String(), "cells_per_s"); got != c.want || code != c.code {
			t.Errorf("%s: cells_per_s %s, exit %d; want %s, %d\n%s", c.name, got, code, c.want, c.code, buf.String())
		}
		if got := verdict(buf.String(), "allocs_per_cell"); got != verdictOK {
			t.Errorf("%s: unchanged allocs_per_cell is %s", c.name, got)
		}
	}

	// A changed digest or machine is a warning: the host times then
	// compare different work.
	var buf bytes.Buffer
	other := synthetic(1, "e", map[string]float64{"cells_per_s": 100})
	other.Machine.GOMAXPROCS = 4
	compareRuns(&buf, runs(100), []runRecord{other})
	for _, want := range []string{"WARNING sim_digest of bulk at seed 1 differs", "WARNING GOMAXPROCS differs"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("no %q in\n%s", want, buf.String())
		}
	}
	buf.Reset()
	compareRuns(&buf, runs(100), []runRecord{synthetic(2, "e", map[string]float64{"cells_per_s": 100})})
	if strings.Contains(buf.String(), "sim_digest") {
		t.Errorf("another seed's digest was compared:\n%s", buf.String())
	}

	// More failed checks than the parent is a regression whatever the times.
	failing := runs(100)
	failing[0].Workloads[0].Failed = 2
	buf.Reset()
	if code := compareRuns(&buf, runs(100), failing); code != 1 || !strings.Contains(buf.String(), "failed") {
		t.Errorf("failed checks: exit %d\n%s", code, buf.String())
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.jsonl")
	a := synthetic(1, "d", map[string]float64{"cells_per_s": 100})
	b := synthetic(2, "e", map[string]float64{"cells_per_s": 90})
	for _, r := range []runRecord{a, b} {
		if err := appendRun(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readRuns(path)
	if err != nil || !reflect.DeepEqual(got, []runRecord{a, b}) {
		t.Errorf("read back %+v, %v", got, err)
	}
	if _, err := readRuns(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("reading a missing file succeeded")
	}
	var buf bytes.Buffer
	if code := compareFiles(&buf, path, filepath.Join(t.TempDir(), "missing")); code != 2 {
		t.Errorf("comparing against a missing file: exit %d", code)
	}
}

func TestContractLine(t *testing.T) {
	res := workloadResult{Workload: "bulk", Attempted: 8, Failed: 1, Failures: []string{"bulk: x: y"},
		Metrics: map[string]metric{"cells_per_s": {123.456789012345, "cells/s"}}}
	var buf bytes.Buffer
	res.print(&buf, false)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 4 || string(got["correct"]) != "false" || string(got["attempted"]) != "8" || string(got["failed"]) != "1" ||
		!strings.Contains(string(got["metrics"]), `"cells_per_s":{"value":123.456789012345,"unit":"cells/s"}`) {
		t.Errorf("contract line %s", lines[len(lines)-1])
	}
	if !strings.Contains(buf.String(), "bulk cells_per_s 123.456789012345 cells/s\n") || !strings.Contains(buf.String(), "FAILED bulk: x: y\n") {
		t.Errorf("human lines:\n%s", buf.String())
	}
}

// BENCHMARK.json and the tables in spec.go and workloads.go say the same.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, code has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, code has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
}
