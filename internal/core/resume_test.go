package core

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quiclab/internal/obs"
)

// compareTrees asserts two readTree results (bundle_test.go) are
// byte-identical in both directions.
func compareTrees(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	for rel, w := range want {
		g, ok := got[rel]
		if !ok {
			t.Fatalf("%s: missing file %s", label, rel)
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s: %s differs:%s", label, rel, diffHint(w, g))
		}
	}
	for rel := range got {
		if _, ok := want[rel]; !ok {
			t.Fatalf("%s: extra file %s", label, rel)
		}
	}
}

// normalizeBundlePaths rewrites the run-specific bundle root embedded in
// ledger cell records so ledgers from runs with different temp dirs
// compare byte-for-byte.
func normalizeBundlePaths(ledger []byte, bundleDir string) []byte {
	return bytes.ReplaceAll(ledger, []byte(bundleDir), []byte("BUNDLES"))
}

// TestResumeByteIdentical is the tentpole invariant: a sweep interrupted
// mid-flight and resumed produces byte-identical rendered output, bundle
// tree, and ledger deterministic section to an uninterrupted run — at
// sequential and parallel worker counts.
func TestResumeByteIdentical(t *testing.T) {
	workerCounts := []int{1, 4, 8}
	if testing.Short() {
		workerCounts = []int{1, 4}
	}
	expIDs := []string{"fig2"}
	if !testing.Short() {
		expIDs = append(expIDs, "fig7")
	}
	for _, id := range expIDs {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		for _, workers := range workerCounts {
			workers := workers
			t.Run(fmt.Sprintf("%s/workers=%d", id, workers), func(t *testing.T) {
				base := t.TempDir()
				opts := func(bundles, ckpt string) Options {
					return Options{
						Quick: true, Rounds: 2, Seed: 3, Parallelism: workers,
						BundleDir: bundles, CheckpointDir: ckpt,
					}
				}

				// Reference: one uninterrupted run.
				refBundles := filepath.Join(base, "ref-bundles")
				var refOut, refLedger bytes.Buffer
				{
					o := opts(refBundles, filepath.Join(base, "ref-ckpt"))
					l := obs.NewLedger(&refLedger)
					o.Ledger = l
					e.Run(&refOut, o)
					if err := l.Close(); err != nil {
						t.Fatalf("reference ledger: %v", err)
					}
				}

				// Interrupted: same config in fresh dirs, interrupt after the
				// first completed cell. In-flight cells finish and checkpoint;
				// at high parallelism every cell may already be claimed, in
				// which case the run simply completes — the resume below then
				// restores everything, which the invariant must also survive.
				bundles := filepath.Join(base, "bundles")
				ckpt := filepath.Join(base, "ckpt")
				var interrupted bool
				{
					intc := make(chan struct{})
					var closed atomic.Bool
					o := opts(bundles, ckpt)
					var sink bytes.Buffer
					l := obs.NewLedger(&sink)
					o.Ledger = l
					o.Interrupt = intc
					o.Progress = func(CellTiming) {
						if closed.CompareAndSwap(false, true) {
							close(intc)
						}
					}
					o.Stats = func(st MatrixStats) { interrupted = st.Interrupted }
					e.Run(io.Discard, o)
					l.Close()
				}
				if workers == 1 && !interrupted {
					t.Fatal("sequential run with interrupt after first cell was not interrupted")
				}

				// Resume: same dirs, no interrupt. Must replay to the exact
				// reference bytes and actually skip checkpointed cells.
				var resOut, resLedger bytes.Buffer
				var resStats MatrixStats
				{
					o := opts(bundles, ckpt)
					l := obs.NewLedger(&resLedger)
					o.Ledger = l
					o.Stats = func(st MatrixStats) { resStats = st }
					e.Run(&resOut, o)
					if err := l.Close(); err != nil {
						t.Fatalf("resumed ledger: %v", err)
					}
				}
				if resStats.SkippedCells == 0 {
					t.Fatal("resumed run restored no cells from the checkpoint")
				}
				if resStats.CheckpointErr != nil {
					t.Fatalf("resumed run checkpoint error: %v", resStats.CheckpointErr)
				}
				if !bytes.Equal(refOut.Bytes(), resOut.Bytes()) {
					t.Fatalf("resumed output differs from uninterrupted run:%s",
						diffHint(refOut.Bytes(), resOut.Bytes()))
				}
				ref := normalizeBundlePaths(stripTimingLines(t, refLedger.Bytes()), refBundles)
				res := normalizeBundlePaths(stripTimingLines(t, resLedger.Bytes()), bundles)
				if !bytes.Equal(ref, res) {
					t.Fatalf("resumed ledger deterministic section differs:%s", diffHint(ref, res))
				}
				compareTrees(t, "bundle tree", readTree(t, refBundles), readTree(t, bundles))
			})
		}
	}
}

// TestWorkerPanicContained: a panicking cell is contained, classified
// cell_panic with its stack in the ledger, and never checkpointed (a
// resume re-runs it); every other cell still completes and checkpoints.
func TestWorkerPanicContained(t *testing.T) {
	var ledger bytes.Buffer
	l := obs.NewLedger(&ledger)
	ckpt := t.TempDir()
	m := NewMatrix("paniccase", Options{Rounds: 2, Seed: 1, Parallelism: 4, Ledger: l, CheckpointDir: ckpt})
	sci := m.NextScenario()
	results := make([]int64, 4)
	for r := 0; r < 4; r++ {
		r := r
		AddCell(m, Cell{Scenario: sci, Round: r}, &results[r], func(seed int64) int64 {
			if r == 2 {
				panic("injected cell failure")
			}
			return seed
		})
	}
	st := m.Run()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Panics != 1 {
		t.Fatalf("stats.Panics = %d, want 1", st.Panics)
	}
	for r, v := range results {
		if r != 2 && v == 0 {
			t.Fatalf("cell %d did not complete after sibling panic", r)
		}
	}
	entries, err := obs.ReadLedger(bytes.NewReader(ledger.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.Cell != nil && e.Cell.Round == 2 {
			found = true
			if e.Cell.Outcome != FailCellPanic.String() {
				t.Fatalf("panicked cell outcome = %q, want %q", e.Cell.Outcome, FailCellPanic)
			}
			if !strings.Contains(e.Cell.Stack, "injected cell failure") ||
				!strings.Contains(e.Cell.Stack, "goroutine") {
				t.Fatalf("panicked cell record lacks message+stack: %q", e.Cell.Stack)
			}
		}
	}
	if !found {
		t.Fatal("no ledger record for the panicked cell")
	}
	_, cells, _, err := obs.ReadCheckpointFile(filepath.Join(ckpt, "paniccase"+obs.CheckpointExt))
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := map[int]bool{}
	for _, c := range cells {
		checkpointed[c.Round] = true
	}
	for r := range results {
		if checkpointed[r] != (r != 2) {
			t.Fatalf("round %d checkpointed=%v; want every round but the panicked round 2", r, checkpointed[r])
		}
	}
}

// addWedgedCell registers a cell whose simulation reschedules a
// zero-delay event forever: nothing else can end it but its event budget.
func addWedgedCell(m *Matrix, c Cell, slot *pltPayload) {
	sc := Scenario{RateMbps: 1}
	addCell(m, c, slot, nil, func(seed int64, tp *tbPool) (pltPayload, *Result) {
		tb := sc.acquire(QUIC, 1, seed, tp)
		var spin func()
		spin = func() { tb.sim.Schedule(0, spin) }
		tb.sim.Schedule(0, spin)
		tb.run(sc, time.Second)
		res := tb.result()
		return pltOf(res), &res
	})
}

// TestCellTimeout: a wedged cell is cut at its event budget — a bound in
// simulated events, not host time — and classified cell_panic with the
// budget, the event count and the virtual time; the sweep completes. The
// cut comes at the same event at 1 and 2 workers and after an interrupt
// and resume.
func TestCellTimeout(t *testing.T) {
	wantBudget := Scenario{RateMbps: 1}.eventBudget(time.Second)
	sweep := func(o Options) (detail string, st MatrixStats, slot pltPayload) {
		t.Helper()
		var ledger bytes.Buffer
		o.Rounds, o.Seed, o.Ledger = 1, 1, obs.NewLedger(&ledger)
		o.Stats = func(s MatrixStats) { st = s }
		m := NewMatrix("wedgecase", o)
		sci := m.NextScenario()
		for r := 0; r < 3; r++ {
			if r == 1 {
				addWedgedCell(m, Cell{Scenario: sci, Round: r}, &slot)
			} else {
				AddCell(m, Cell{Scenario: sci, Round: r}, new(int), func(int64) int { return r })
			}
		}
		m.Run()
		if err := o.Ledger.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := obs.ReadLedger(&ledger)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Cell != nil && e.Cell.Round == 1 {
				if e.Cell.Outcome != FailCellPanic.String() {
					t.Fatalf("wedged cell outcome = %q, want %q", e.Cell.Outcome, FailCellPanic)
				}
				detail, _, _ = strings.Cut(e.Cell.Stack, "\n")
			}
		}
		return detail, st, slot
	}
	want := fmt.Sprintf("event budget spent: %d events fired (budget %d) by virtual time 0s of a 1s horizon; the simulation is wedged",
		wantBudget, wantBudget)
	for _, workers := range []int{1, 2} {
		detail, st, slot := sweep(Options{Parallelism: workers})
		if detail != want {
			t.Fatalf("%d workers: wedged cell's ledger detail %q, want %q", workers, detail, want)
		}
		if st.Panics != 1 || st.Interrupted || st.Cells != 3 {
			t.Fatalf("%d workers: stats %+v, want 3 cells, one panic, not interrupted", workers, st)
		}
		if slot != (pltPayload{Failure: int(FailCellPanic)}) {
			t.Fatalf("%d workers: wedged cell's slot %+v, want an incomplete cell_panic round", workers, slot)
		}
	}

	// Cut the sweep after its first cell, then resume it: the wedged cell
	// runs in the resumed process and is cut at the same event.
	dir := t.TempDir()
	intc := make(chan struct{})
	var once sync.Once
	_, cut, _ := sweep(Options{
		Parallelism: 1, CheckpointDir: dir, Interrupt: intc,
		Progress: func(CellTiming) { once.Do(func() { close(intc) }) },
	})
	if !cut.Interrupted || cut.UnrunCells != 2 {
		t.Fatalf("interrupted sweep: %+v, want two cells unrun", cut)
	}
	detail, st, _ := sweep(Options{Parallelism: 1, CheckpointDir: dir})
	if st.SkippedCells != 1 || st.Panics != 1 || detail != want {
		t.Fatalf("resumed sweep restored %d cells, %d panicked, detail %q; want 1, 1, %q", st.SkippedCells, st.Panics, detail, want)
	}
}

// TestResumeRejectsForeignConfig: a checkpoint from a different sweep
// config restores nothing (and reports the mismatch) — the run simply
// recomputes everything, still correctly. The resuming run restores
// without writing a checkpoint, as quicreport render does.
func TestResumeRejectsForeignConfig(t *testing.T) {
	e, _ := ByID("fig2")
	base := t.TempDir()
	ckptA := filepath.Join(base, "a")

	var refOut bytes.Buffer
	o := Options{Quick: true, Rounds: 2, Seed: 3, Parallelism: 2, CheckpointDir: ckptA}
	e.Run(&refOut, o)

	// Different base seed: the resume key must not match.
	var out bytes.Buffer
	var st MatrixStats
	o2 := Options{Quick: true, Rounds: 2, Seed: 4, Parallelism: 2, ResumeFrom: ckptA}
	o2.Stats = func(s MatrixStats) { st = s }
	e.Run(&out, o2)
	if st.SkippedCells != 0 {
		t.Fatalf("foreign checkpoint restored %d cells, want 0", st.SkippedCells)
	}
	if st.CheckpointErr == nil {
		t.Fatal("config mismatch was not reported via CheckpointErr")
	}
}

// TestResumeKeysOnCC: the congestion-control override is part of a
// sweep's identity. Cell seeds do not depend on it, so otherwise a bbr
// checkpoint would restore whole into a default run and one table would
// mix two controllers.
func TestResumeKeysOnCC(t *testing.T) {
	e, _ := ByID("fig2")
	dir := t.TempDir()
	e.Run(io.Discard, Options{Quick: true, Rounds: 2, Seed: 3, CC: "bbr", CheckpointDir: dir})
	resume := func(cc string) (st MatrixStats) {
		e.Run(io.Discard, Options{
			Quick: true, Rounds: 2, Seed: 3, CC: cc, ResumeFrom: dir,
			Stats: func(s MatrixStats) { st = s },
		})
		return st
	}
	if st := resume("bbr"); st.Cells == 0 || st.SkippedCells != st.Cells {
		t.Fatalf("same-cc resume restored %d of %d cells", st.SkippedCells, st.Cells)
	}
	if st := resume(""); st.SkippedCells != 0 {
		t.Fatalf("a bbr checkpoint restored %d of %d cells into a run without -cc", st.SkippedCells, st.Cells)
	}
}

// sweep is one run of an experiment with a ledger: what it rendered, the
// ledger's deterministic section, the engine's stats (of its last sweep;
// sweeps counts them), and how many cell bodies the engine executed
// (cells it did not restore).
type sweep struct {
	out, ledger    []byte
	stats          MatrixStats
	sweeps, bodies int
}

func runSweep(t *testing.T, e Experiment, o Options) sweep {
	t.Helper()
	var (
		s           sweep
		out, ledger bytes.Buffer
	)
	l := obs.NewLedger(&ledger)
	o.Ledger = l
	progress := o.Progress
	o.Progress = func(ct CellTiming) { // serialized by the engine
		if !ct.Resumed {
			s.bodies++
		}
		if progress != nil {
			progress(ct)
		}
	}
	o.Stats = func(st MatrixStats) { s.stats, s.sweeps = st, s.sweeps+1 }
	e.Run(&out, o)
	if err := l.Close(); err != nil {
		t.Fatalf("ledger: %v", err)
	}
	s.out, s.ledger = out.Bytes(), stripTimingLines(t, ledger.Bytes())
	return s
}

// askedForByName reports whether this run selected the calling test with
// -run rather than meeting it in the whole suite.
func askedForByName(t *testing.T) bool {
	pattern, _, _ := strings.Cut(flag.Lookup("test.run").Value.String(), "/")
	return pattern != "" && regexp.MustCompile(pattern).MatchString(t.Name())
}

// TestEveryExperimentResumes holds every registered experiment to the
// engine's promise: a run is one sweep under the experiment's ID, a
// complete checkpointed sweep has every cell on disk, and re-running it
// executes no cell body, restores every cell — with a ledger on, observed
// or not — and renders the same bytes and the same deterministic ledger
// section. Each is also interrupted after its first cell, which renders
// nothing, and resumed from there.
//
// The whole registry at 1 and 4 workers is a ~10 s sweep, so it runs
// when asked for by name (`make check` does); the default suite and
// -short run a subset: one page-load experiment, one whose cells surface
// no Result (table4), one that could not resume at all before cells
// became values (table5).
func TestEveryExperimentResumes(t *testing.T) {
	subset := map[string]bool{"fig2": true, "table4": true, "table5": true}
	everything := askedForByName(t) && !testing.Short()
	workerCounts := []int{4}
	if everything {
		workerCounts = []int{1, 4}
	}
	for _, e := range Experiments() {
		if !everything && !subset[e.ID] {
			continue
		}
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", e.ID, workers), func(t *testing.T) {
				dir := t.TempDir()
				opts := func(ckpt string) Options {
					return Options{
						Quick: true, Rounds: 2, Seed: 3, Parallelism: workers,
						CheckpointDir: filepath.Join(dir, ckpt),
					}
				}
				oneSweep := func(label string, got sweep) {
					t.Helper()
					if got.sweeps != 1 || got.stats.Experiment != e.ID {
						t.Fatalf("%s: %d sweeps reported, the last as %q; want one, as %q",
							label, got.sweeps, got.stats.Experiment, e.ID)
					}
				}
				ref := runSweep(t, e, opts("ref"))
				oneSweep("reference run", ref)
				if ref.stats.Cells == 0 || ref.bodies != ref.stats.Cells {
					t.Fatalf("reference run executed %d of %d cells", ref.bodies, ref.stats.Cells)
				}
				_, onDisk, _, err := obs.ReadCheckpointFile(filepath.Join(dir, "ref", e.ID+obs.CheckpointExt))
				if err != nil || len(onDisk) != ref.stats.Cells {
					t.Fatalf("checkpoint holds %d of %d cells (err %v)", len(onDisk), ref.stats.Cells, err)
				}
				sameAsRef := func(label string, got sweep) {
					t.Helper()
					oneSweep(label, got)
					if got.stats.CheckpointErr != nil {
						t.Fatalf("%s: checkpoint error: %v", label, got.stats.CheckpointErr)
					}
					if !bytes.Equal(ref.out, got.out) {
						t.Fatalf("%s: rendered output differs:%s", label, diffHint(ref.out, got.out))
					}
					if !bytes.Equal(ref.ledger, got.ledger) {
						t.Fatalf("%s: ledger deterministic section differs:%s", label, diffHint(ref.ledger, got.ledger))
					}
				}

				again := runSweep(t, e, opts("ref"))
				if again.bodies != 0 || again.stats.SkippedCells != ref.stats.Cells {
					t.Fatalf("resume of a complete checkpoint ran %d cell bodies and restored %d of %d cells",
						again.bodies, again.stats.SkippedCells, ref.stats.Cells)
				}
				sameAsRef("complete resume", again)

				intc := make(chan struct{})
				var once sync.Once
				o := opts("cut")
				o.Interrupt = intc
				o.Progress = func(CellTiming) { once.Do(func() { close(intc) }) }
				cut := runSweep(t, e, o)
				oneSweep("interrupted run", cut)
				if workers == 1 && ref.stats.Cells > 1 && !cut.stats.Interrupted {
					t.Fatal("sequential run interrupted after its first cell ran to completion")
				}
				if cut.stats.Interrupted && len(cut.out) != 0 {
					t.Fatalf("interrupted run rendered %d bytes, want none:\n%s", len(cut.out), cut.out)
				}
				resumed := runSweep(t, e, opts("cut"))
				if resumed.stats.SkippedCells != cut.bodies || resumed.bodies != ref.stats.Cells-cut.bodies {
					t.Fatalf("interrupted run finished %d cells; resume restored %d and ran %d of %d",
						cut.bodies, resumed.stats.SkippedCells, resumed.bodies, ref.stats.Cells)
				}
				sameAsRef("resume after interrupt", resumed)
			})
		}
	}
}
