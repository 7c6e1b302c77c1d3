package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"quiclab/internal/device"
	"quiclab/internal/netem"
	"quiclab/internal/trace"
	"quiclab/internal/web"
)

// TestCellSeedDistinctAcrossCells is the seed-derivation uniqueness
// property: distinct (experiment, scenario, round) tuples never share a
// seed, across every registered experiment and a matrix far larger than
// any real sweep.
func TestCellSeedDistinctAcrossCells(t *testing.T) {
	const (
		scenarios = 64
		rounds    = 32
		base      = int64(1)
	)
	seen := make(map[int64]string)
	for _, e := range Experiments() {
		for s := 0; s < scenarios; s++ {
			for r := 0; r < rounds; r++ {
				seed := CellSeed(base, e.ID, s, r)
				if seed <= 0 {
					t.Fatalf("CellSeed(%d, %q, %d, %d) = %d, want positive", base, e.ID, s, r, seed)
				}
				key := fmt.Sprintf("%s/%d/%d", e.ID, s, r)
				if prev, dup := seen[seed]; dup {
					t.Fatalf("seed collision: %s and %s both derive %d", prev, key, seed)
				}
				seen[seed] = key
			}
		}
	}
	// Different base seeds must relocate the whole matrix.
	if CellSeed(1, "fig8", 0, 0) == CellSeed(2, "fig8", 0, 0) {
		t.Fatal("base seed does not enter derivation")
	}
}

// TestCellSeedSharedByPairedArms: the two arms of one (scenario, round)
// cell derive the same seed regardless of Proto and Arm labels — both
// arms must see the same emulated network (the paper's back-to-back
// pairing) — while any change to the identifying tuple moves the seed.
func TestCellSeedSharedByPairedArms(t *testing.T) {
	// The derivation is frozen (SeedDerivation names it): checkpoints and
	// ledgers on disk hold seeds it handed out.
	if a, b := CellSeed(3, "fig6a", 4, 2), CellSeed(-7, "", 0, 0); a != 5588945384009997545 || b != 5094555809061953903 {
		t.Fatalf("CellSeed derivation changed: got %d and %d", a, b)
	}
	a := Cell{Experiment: "fig8", Scenario: 3, Round: 2, Proto: QUIC, Arm: 0}
	b := Cell{Experiment: "fig8", Scenario: 3, Round: 2, Proto: TCP, Arm: 1}
	if a.Seed(7) != b.Seed(7) {
		t.Fatalf("paired arms disagree: QUIC arm %d, TCP arm %d", a.Seed(7), b.Seed(7))
	}
	for name, c := range map[string]Cell{
		"scenario":   {Experiment: "fig8", Scenario: 4, Round: 2},
		"round":      {Experiment: "fig8", Scenario: 3, Round: 3},
		"experiment": {Experiment: "fig6a", Scenario: 3, Round: 2},
	} {
		if c.Seed(7) == a.Seed(7) {
			t.Fatalf("changing %s did not change the seed", name)
		}
	}
}

// recordedRun captures the seed handed to each cell of a synthetic
// matrix at a given worker count, plus the finalizer execution order.
func recordedRun(t *testing.T, workers, scenarios, rounds int) (map[Cell]int64, []int) {
	t.Helper()
	m := NewMatrix("record", Options{Rounds: rounds, Seed: 5, Parallelism: workers})
	got := make([]int64, scenarios*rounds)
	var cells []Cell
	var finals []int
	for s := 0; s < scenarios; s++ {
		sci := m.NextScenario()
		for r := 0; r < rounds; r++ {
			c := Cell{Experiment: "record", Scenario: sci, Round: r}
			AddCell(m, c, &got[len(cells)], func(seed int64) int64 { return seed })
			cells = append(cells, c)
		}
		m.Defer(func() { finals = append(finals, sci) })
	}
	stats := m.Run()
	if stats.Cells != scenarios*rounds {
		t.Fatalf("stats.Cells = %d, want %d", stats.Cells, scenarios*rounds)
	}
	seeds := make(map[Cell]int64)
	for i, c := range cells {
		seeds[c] = got[i]
	}
	return seeds, finals
}

// TestMatrixSeedsIndependentOfWorkers: the seed each cell receives, and
// the order finalizers run in, are identical at any worker count.
func TestMatrixSeedsIndependentOfWorkers(t *testing.T) {
	const scenarios, rounds = 6, 4
	ref, refFinals := recordedRun(t, 1, scenarios, rounds)
	for _, workers := range []int{2, 4, 8} {
		got, finals := recordedRun(t, workers, scenarios, rounds)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d cells ran, want %d", workers, len(got), len(ref))
		}
		for c, seed := range ref {
			if got[c] != seed {
				t.Fatalf("workers=%d: cell %+v got seed %d, want %d", workers, c, got[c], seed)
			}
		}
		for i := range refFinals {
			if finals[i] != refFinals[i] {
				t.Fatalf("workers=%d: finalizer order %v, want %v", workers, finals, refFinals)
			}
		}
	}
}

// TestMatrixCanonicalAssembly: cells finishing in scrambled wall-clock
// order still assemble byte-identical output, because slots are
// pre-allocated and aggregation runs in registration order.
func TestMatrixCanonicalAssembly(t *testing.T) {
	assemble := func(workers int) string {
		m := NewMatrix("assembly", Options{Rounds: 1, Seed: 9, Parallelism: workers})
		const n = 24
		slots := make([]string, n)
		var buf bytes.Buffer
		for i := 0; i < n; i++ {
			i := i
			sci := m.NextScenario()
			AddCell(m, Cell{Scenario: sci}, &slots[i], func(seed int64) string {
				// Invert completion order vs registration order so any
				// order-dependence in assembly shows up immediately.
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return fmt.Sprintf("cell %d seed %d", i, seed)
			})
			m.Defer(func() { fmt.Fprintln(&buf, slots[i]) })
		}
		m.Run()
		return buf.String()
	}
	ref := assemble(1)
	if got := assemble(8); got != ref {
		t.Fatalf("assembly differs between 1 and 8 workers:\n-- workers=1 --\n%s-- workers=8 --\n%s", ref, got)
	}
}

// TestMatrixProgress: the progress callback fires exactly once per cell
// with a monotonically increasing Completed count, under any worker
// count (calls are serialized by the engine).
func TestMatrixProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var timings []CellTiming
		o := Options{Rounds: 1, Seed: 3, Parallelism: workers,
			Progress: func(ct CellTiming) { timings = append(timings, ct) }}
		m := NewMatrix("progress", o)
		const n = 10
		for i := 0; i < n; i++ {
			AddCell(m, Cell{Scenario: m.NextScenario()}, new(struct{}), func(int64) struct{} { return struct{}{} })
		}
		stats := m.Run()
		if len(timings) != n {
			t.Fatalf("workers=%d: %d progress calls, want %d", workers, len(timings), n)
		}
		for i, ct := range timings {
			if ct.Completed != i+1 || ct.Total != n {
				t.Fatalf("workers=%d: timing %d = %d/%d, want %d/%d", workers, i, ct.Completed, ct.Total, i+1, n)
			}
			if ct.Cell.Experiment != "progress" {
				t.Fatalf("cell not stamped with experiment: %+v", ct.Cell)
			}
		}
		if stats.Workers > n {
			t.Fatalf("stats.Workers = %d > cells %d", stats.Workers, n)
		}
	}
}

// TestMatrixEmpty: running an empty matrix is a no-op, not a hang or a
// panic.
func TestMatrixEmpty(t *testing.T) {
	m := NewMatrix("empty", Options{Parallelism: 4})
	stats := m.Run()
	if stats.Cells != 0 || stats.CellWall != 0 {
		t.Fatalf("empty matrix stats = %+v", stats)
	}
}

// faultFingerprint extracts the injected-fault sequence (virtual time +
// fault description) from a run's server-side event log.
func faultFingerprint(rec *trace.Recorder) []string {
	var fp []string
	for _, e := range rec.Events {
		if e.Type == trace.EventFaultInjected {
			fp = append(fp, fmt.Sprintf("%v %s", e.T, e.Fault))
		}
	}
	return fp
}

// TestPairedArmsShareFaultSchedule is the replay-fingerprint property:
// because paired arms share a cell seed, the QUIC and TCP arms of one
// cell must observe the *same* netem fault schedule firing at the same
// virtual times, and the same link configuration. Distinct cells must
// derive distinct schedules.
func TestPairedArmsShareFaultSchedule(t *testing.T) {
	var prevSchedule string
	for round := 0; round < 3; round++ {
		seed := CellSeed(11, "faultpair", 0, round)
		// Derive the scenario (link + schedule) from the cell seed, the
		// way an engine-based experiment does.
		mk := func() Scenario {
			rng := rand.New(rand.NewSource(seed))
			// The transfer (4MB at 10Mbps ≈ 3.4s nominal) outlasts the
			// 2s fault window, so every scheduled fault fires while both
			// arms are still in flight.
			sc := Scenario{
				Seed:     seed,
				RateMbps: 10,
				RTT:      time.Duration(20+rng.Intn(60)) * time.Millisecond,
				Page:     web.Page{NumObjects: 1, ObjectSize: 4 << 20},
				Device:   device.Desktop,
				Faults:   netem.RandomSchedule(rng, 2*time.Second),
			}
			sc.TraceEvents = true
			return sc
		}
		scQ, scT := mk(), mk()
		if fmt.Sprintf("%+v", scQ.Faults) != fmt.Sprintf("%+v", scT.Faults) {
			t.Fatalf("round %d: arms derived different schedules from one seed", round)
		}
		if scQ.RTT != scT.RTT || scQ.RateMbps != scT.RateMbps {
			t.Fatalf("round %d: arms derived different link configs from one seed", round)
		}
		resQ := scQ.RunPLT(QUIC, seed)
		resT := scT.RunPLT(TCP, seed)
		fpQ := faultFingerprint(resQ.ServerTrace)
		fpT := faultFingerprint(resT.ServerTrace)
		if fmt.Sprint(fpQ) != fmt.Sprint(fpT) {
			t.Fatalf("round %d: arms observed different fault injections:\n  QUIC: %v\n  TCP:  %v", round, fpQ, fpT)
		}
		if len(fpQ) == 0 {
			t.Fatalf("round %d: no faults injected — fingerprint test is vacuous", round)
		}
		schedule := fmt.Sprintf("%+v", scQ.Faults)
		if schedule == prevSchedule {
			t.Fatalf("round %d derived the same schedule as round %d — distinct cells must not share seeds", round, round-1)
		}
		prevSchedule = schedule
	}
}

// TestExperimentOutputIndependentOfWorkers renders one representative
// heatmap experiment at several worker counts and asserts byte-identical
// output. (golden_test.go covers the whole registry; this one stays fast
// enough for -short runs.)
func TestExperimentOutputIndependentOfWorkers(t *testing.T) {
	e, ok := ByID("fig6a")
	if !ok {
		t.Fatal("fig6a not registered")
	}
	render := func(workers int) string {
		var buf bytes.Buffer
		e.Run(&buf, Options{Quick: true, Rounds: 2, Seed: 3, Parallelism: workers})
		return buf.String()
	}
	ref := render(1)
	if ref == "" {
		t.Fatal("experiment rendered nothing")
	}
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != ref {
			t.Fatalf("fig6a output differs between 1 and %d workers:\n-- workers=1 --\n%s\n-- workers=%d --\n%s",
				workers, ref, workers, got)
		}
	}
}

// BenchmarkMatrixSequentialVsParallel times the Quick fig8 sweep (the
// heaviest heatmap experiment) sequentially and at one worker per CPU.
// On a 4+ core machine the parallel arm should finish in well under half
// the sequential wall-clock; CellWall/Wall in MatrixStats reports the
// achieved speedup.
//
// The setup/transfer/finalize sub-benchmarks decompose one sequential
// engine sweep into its phases — cell registration, cell execution, and
// aggregation — so a perf regression names the layer it lives in
// instead of disappearing into the whole-sweep number.
func BenchmarkMatrixSequentialVsParallel(b *testing.B) {
	e, ok := ByID("fig8")
	if !ok {
		b.Fatal("fig8 not registered")
	}
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(io.Discard, Options{Quick: true, Rounds: 2, Seed: 3, Parallelism: workers})
			}
		})
	}
	o := Options{Quick: true, Rounds: 2, Seed: 3, Parallelism: 1}
	b.Run("setup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSweepMatrix(o)
		}
	})
	b.Run("transfer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := benchSweepMatrix(o)
			m.finalize = nil // cells only; aggregation timed by "finalize"
			b.StartTimer()
			m.Run()
		}
	})
	b.Run("finalize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := benchSweepMatrix(o)
			fins := m.finalize
			m.finalize = nil
			m.Run()
			b.StartTimer()
			for _, f := range fins {
				f()
			}
		}
	})
}

// benchSweepMatrix registers (without running) a representative paired
// sweep: a fig8-style loss × RTT grid of back-to-back QUIC/TCP
// comparisons.
func benchSweepMatrix(o Options) *Matrix {
	m := NewMatrix("benchsweep", o)
	for _, loss := range []float64{0, 1} {
		for _, rtt := range []time.Duration{36 * time.Millisecond, 112 * time.Millisecond} {
			m.Compare(Scenario{
				RateMbps: 10,
				RTT:      rtt,
				LossPct:  loss,
				Page:     web.Page{NumObjects: 2, ObjectSize: 256 << 10},
				Device:   device.Desktop,
			})
		}
	}
	return m
}

// BenchmarkScenarioBuild pins the cost of constructing one fully
// instrumented testbed from scratch — the per-cell cost that testbed
// reuse amortises away. Construction must not silently bloat, or the
// cold path (first cell of each shape per worker, plus every public
// RunPLT call) pays for it; the benchmark reports it as core.build_us.
func BenchmarkScenarioBuild(b *testing.B) {
	sc := Scenario{
		RateMbps: 10,
		RTT:      36 * time.Millisecond,
		Page:     web.Page{NumObjects: 2, ObjectSize: 64 << 10},
		Device:   device.Desktop,
	}
	sc = sc.instrumented()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := sc.acquire(QUIC, 1, int64(i+1), nil)
		if tb == nil {
			b.Fatal("acquire returned nil testbed")
		}
	}
}
