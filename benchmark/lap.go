package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"quiclab/internal/core"
	"quiclab/internal/obs"
)

// The end-to-end path: what a caller of the simulator does. It uses
// only core, web, device and obs (README lists every identifier), never
// the layers below them.

// counterNames are the server-side trace counters that enter sim_digest.
var counterNames = [...]string{"declared_lost", "false_loss", "spurious_rexmit", "cc_rto", "cc_tlp"}

// outcome is what one cell of a lap produced: the host time it took and
// the simulated answers, which the checks and the digest read.
type outcome struct {
	cpu, wall time.Duration // host time of the cell: CPU time used, wall clock passed

	plt, end  time.Duration
	completed bool
	counters  [len(counterNames)]int

	// Instrumented cells only (zero otherwise).
	events    int   // server event-log length
	budgetGap int64 // sum over budgets of |Sum() - LifetimeNS|
	bundleErr string

	// Sweep laps only: one outcome per ledger cell record.
	ledgerLine []byte
	ledgerOK   bool
}

func (o outcome) digest() uint64 {
	d := newDigest()
	if o.ledgerLine != nil {
		d.bytes(o.ledgerLine)
		return d.h
	}
	d.u64(uint64(o.plt))
	d.u64(uint64(o.end))
	if o.completed {
		d.u64(1)
	} else {
		d.u64(0)
	}
	for _, c := range o.counters {
		d.u64(uint64(c))
	}
	return d.h
}

// lapResult is one whole lap.
type lapResult struct {
	cells []outcome
	// cpu and wall are the host time of the lap's timed regions: the sum
	// over the cells (closed loop, one cell at a time) or, for sweep, the
	// Experiment.Run calls plus closing the ledger.
	cpu, wall time.Duration
	slowest   time.Duration // largest per-cell CPU time
	simTime   time.Duration // simulated seconds covered
	mallocs   uint64
	bytes     uint64
	// extra are lap-level check failures that belong to no single cell
	// (sweep: engine errors, rendered output).
	extra  []string
	output uint64 // sweep: hash of the rendered tables
}

func (l lapResult) digest() uint64 {
	d := newDigest()
	for _, c := range l.cells {
		d.u64(c.digest())
	}
	d.u64(l.output)
	return d.h
}

// runner runs laps of one workload.
type runner struct {
	w    workload
	seed int64
	// par is the sweep's engine worker count. Timed laps run on one
	// worker: with as many workers as CPUs a neighbour that takes one
	// CPU halves the sweep's speed, and cells_per_s moved 30 % between
	// runs of unchanged code on a 2-vCPU sandbox. What more workers buy
	// is the traced run's core.parallel_efficiency.
	par   int
	cells []cell
	tmp   string // scratch directory; every lap works in a fresh child
	nlap  int

	// passive holds, per instrumented cell, the outcome of the same
	// cell run with instruments off: instruments must not move answers.
	passive []outcome
}

func newRunner(w workload, seed int64, tmp string) *runner {
	r := &runner{w: w, seed: seed, par: 1, tmp: tmp}
	if !w.sweep {
		r.cells = w.cells(seed)
	}
	if w.name == "instrumented" {
		for _, c := range r.cells {
			c.sc = bare(c.sc)
			r.passive = append(r.passive, runCell(c, ""))
		}
	}
	return r
}

// bare strips the instruments from a scenario.
func bare(sc core.Scenario) core.Scenario {
	sc.TraceEvents, sc.Metrics, sc.Profile, sc.WireEncode = false, false, false, false
	return sc
}

func instrumented(sc core.Scenario) bool { return sc.TraceEvents || sc.Metrics || sc.Profile }

// lap runs the workload once. Directory set-up and removal, the reading
// back of what a lap wrote, and the memory counters' reads sit outside
// the timed regions.
func (r *runner) lap() (lapResult, error) {
	r.nlap++
	dir := filepath.Join(r.tmp, fmt.Sprintf("lap%d", r.nlap))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return lapResult{}, err
	}
	defer os.RemoveAll(dir)
	if r.w.sweep {
		// No CheckpointDir: a checkpoint fsyncs once per cell, and 340
		// fsyncs a lap made the lap wall a measure of the sandbox's disk
		// (laps of one run spread 40 %, cells_per_s of ten runs 16 %).
		// The traced run's rung 6 times checkpoints.
		res, _, err := engineLap(sweepSinks{par: r.par, ledger: true}, dir, runSweep(r.seed))
		return res, err
	}
	var res lapResult
	for i, c := range r.cells {
		before := readMem()
		o := runCell(c, filepath.Join(dir, fmt.Sprintf("c%d", i)))
		after := readMem()
		res.mallocs += after.Mallocs - before.Mallocs
		res.bytes += after.TotalAlloc - before.TotalAlloc
		res.cpu += o.cpu
		res.wall += o.wall
		if o.cpu > res.slowest {
			res.slowest = o.cpu
		}
		res.simTime += o.end
		res.cells = append(res.cells, o)
	}
	return res, nil
}

// runCell loads one page and, for an instrumented cell, writes its
// report bundle into bundleDir; both are what the cell's wall covers.
func runCell(c cell, bundleDir string) outcome {
	cpu0, t0 := cpuNow(), time.Now()
	res := c.sc.RunPLT(c.proto, c.seed)
	var bundleErr error
	withBundle := instrumented(c.sc) && bundleDir != ""
	if withBundle {
		bundleErr = core.WriteBundle(bundleDir, core.Cell{Experiment: "bench", Proto: c.proto}, c.seed, res)
	}
	o := outcome{cpu: cpuNow() - cpu0, wall: time.Since(t0), plt: res.PLT, end: res.EndTime, completed: res.Completed}
	for i, name := range counterNames {
		o.counters[i] = res.ServerTrace.Counter(name)
	}
	if !withBundle {
		return o
	}
	o.events = len(res.ServerTrace.Events)
	for _, b := range res.Budgets {
		gap := b.Sum() - b.LifetimeNS
		if gap < 0 {
			gap = -gap
		}
		o.budgetGap += gap
	}
	if len(res.Budgets) == 0 {
		o.budgetGap = -1
	}
	if bundleErr == nil {
		var sum core.BundleSummary
		if sum, bundleErr = core.ReadBundleSummary(bundleDir); bundleErr == nil && sum.EndTimeNS != int64(res.EndTime) {
			bundleErr = fmt.Errorf("bundle end time %d, ran to %d", sum.EndTimeNS, res.EndTime)
		}
	}
	if bundleErr != nil {
		o.bundleErr = bundleErr.Error()
	}
	return o
}

// sweepSinks selects what a sweep lap attaches to the engine.
type sweepSinks struct {
	par        int
	ledger     bool
	checkpoint bool
}

// engineStats is what the engine reported about one sweep lap.
type engineStats struct {
	cells      int
	wall       time.Duration // sum of MatrixStats.Wall
	cellWall   time.Duration // sum of MatrixStats.CellWall
	ledgerSize int64
	ckptSize   int64
	findings   int
}

// runSweep returns what a sweep lap runs: the Quick experiments, in the
// order -seed base gives, through the matrix engine.
func runSweep(base int64) func(core.Options, *bytes.Buffer) {
	ids := sweepOrder(base)
	return func(o core.Options, out *bytes.Buffer) {
		o.Quick = true
		o.Seed = pinnedSeed
		for _, id := range ids {
			e, ok := core.ByID(id)
			if !ok {
				panic("benchmark: experiment " + id + " is not registered")
			}
			e.Run(out, o)
		}
	}
}

// engineLap times run, which drives the matrix engine with the options
// it is handed, and collects what the engine's sinks recorded. The
// ledger is closed inside the timed region (a caller waits for the
// flush); it is read back outside it.
func engineLap(sinks sweepSinks, dir string, run func(core.Options, *bytes.Buffer)) (lapResult, engineStats, error) {
	var (
		res    lapResult
		es     engineStats
		ledger *obs.Ledger
		out    bytes.Buffer
	)
	ledgerPath := filepath.Join(dir, "runs.jsonl")
	var lastCell time.Duration // CPU time when the previous cell finished
	o := core.Options{
		Parallelism: sinks.par,
		// Progress is called as each cell finishes. On one worker the
		// cells run one after another, so the CPU time between two calls
		// is the later cell's (with the engine's work around it).
		Progress: func(core.CellTiming) {
			now := cpuNow()
			if d := now - lastCell; d > res.slowest {
				res.slowest = d
			}
			lastCell = now
		},
		Stats: func(s core.MatrixStats) {
			es.cells += s.Cells
			es.wall += s.Wall
			es.cellWall += s.CellWall
			if s.Panics+s.Timeouts+s.LedgerErrs > 0 {
				res.extra = append(res.extra, fmt.Sprintf("%s: %d panics, %d timeouts, %d ledger records lost",
					s.Experiment, s.Panics, s.Timeouts, s.LedgerErrs))
			}
			for _, err := range []error{s.LedgerErr, s.CheckpointErr} {
				if err != nil {
					res.extra = append(res.extra, fmt.Sprintf("%s: %v", s.Experiment, err))
				}
			}
		},
	}
	if sinks.ledger {
		var err error
		if ledger, err = obs.CreateLedger(ledgerPath); err != nil {
			return res, es, err
		}
		o.Ledger = ledger
	}
	if sinks.checkpoint {
		o.CheckpointDir = filepath.Join(dir, "ckpt")
	}
	before := readMem()
	cpu0, t0 := cpuNow(), time.Now()
	lastCell = cpu0
	run(o, &out)
	if ledger != nil {
		if err := ledger.Close(); err != nil {
			res.extra = append(res.extra, "ledger close: "+err.Error())
		}
	}
	res.cpu, res.wall = cpuNow()-cpu0, time.Since(t0)
	after := readMem()
	res.mallocs = after.Mallocs - before.Mallocs
	res.bytes = after.TotalAlloc - before.TotalAlloc

	d := newDigest()
	d.bytes(out.Bytes())
	res.output = d.h
	if sinks.ledger {
		raw, err := os.ReadFile(ledgerPath)
		if err != nil {
			return res, es, err
		}
		entries, err := obs.ReadLedger(bytes.NewReader(raw))
		if err != nil {
			return res, es, err
		}
		es.ledgerSize = int64(len(raw))
		// The deterministic section: cell records, in registration
		// order. Entries and lines pair up one to one.
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		if len(lines) != len(entries) {
			return res, es, fmt.Errorf("ledger: %d lines, %d records", len(lines), len(entries))
		}
		for i, e := range entries {
			if e.Cell == nil {
				continue
			}
			es.findings += len(e.Cell.Anomalies)
			plt := time.Duration(e.Cell.PLTSeconds * float64(time.Second))
			res.simTime += plt
			res.cells = append(res.cells, outcome{plt: plt, ledgerLine: lines[i],
				ledgerOK: e.Cell.Outcome == obs.OutcomeCompleted || e.Cell.Outcome == obs.OutcomeUnobserved})
		}
	}
	if sinks.checkpoint {
		files, _ := filepath.Glob(filepath.Join(o.CheckpointDir, "*.ckpt"))
		for _, f := range files {
			if st, err := os.Stat(f); err == nil {
				es.ckptSize += st.Size()
			}
		}
		if len(files) == 0 {
			res.extra = append(res.extra, "no checkpoint file written")
		}
	}
	return res, es, nil
}

// failure is one failed check. cell is the index of the failing cell,
// or -1 when the failure belongs to the lap as a whole.
type failure struct {
	cell int
	msg  string
}

// failedCells counts the cells with at least one failure; every
// lap-level failure counts as one more.
func failedCells(fails []failure) int {
	seen := map[int]bool{}
	n := 0
	for _, f := range fails {
		if f.cell < 0 {
			n++
		} else if !seen[f.cell] {
			seen[f.cell] = true
			n++
		}
	}
	return n
}

// verify applies the checks to a lap. ref is the first lap of the run
// (nil for the first lap itself): same seed, same answer.
func (r *runner) verify(l lapResult, ref *lapResult) []failure {
	var fails []failure
	failf := func(i int, format string, args ...any) {
		name := "lap"
		if i >= 0 {
			name = fmt.Sprintf("cell %d", i)
		}
		if i >= 0 && i < len(r.cells) {
			name = r.cells[i].name
		}
		fails = append(fails, failure{i, fmt.Sprintf("%s: %s: %s", r.w.name, name, fmt.Sprintf(format, args...))})
	}
	for i, o := range l.cells {
		switch {
		case r.w.sweep:
			if !o.ledgerOK {
				failf(i, "ledger outcome not completed: %s", o.ledgerLine)
			}
		case !o.completed:
			failf(i, "did not complete")
		default:
			c := r.cells[i]
			floor := time.Duration(float64(c.pageBytes()*8)/(c.sc.RateMbps*1e6)*float64(time.Second)) + c.rtt() - 2*c.sc.Jitter
			if o.plt < floor {
				failf(i, "PLT %v beats the path's floor %v", o.plt, floor)
			}
		}
		if ref != nil && i < len(ref.cells) && o.digest() != ref.cells[i].digest() {
			failf(i, "answer differs from lap 1 (digest %016x, was %016x)", o.digest(), ref.cells[i].digest())
		}
		if r.passive != nil {
			if p := r.passive[i]; o.plt != p.plt || o.end != p.end {
				failf(i, "instruments moved the answer: PLT %v end %v, bare %v end %v", o.plt, o.end, p.plt, p.end)
			}
			if o.events == 0 {
				failf(i, "empty event log")
			}
			if o.budgetGap != 0 {
				failf(i, "budget components do not sum to the lifetime (gap %d ns)", o.budgetGap)
			}
			if o.bundleErr != "" {
				failf(i, "bundle: %s", o.bundleErr)
			}
		}
	}
	for _, e := range l.extra {
		failf(-1, "%s", e)
	}
	if ref != nil {
		if len(l.cells) != len(ref.cells) {
			failf(-1, "%d cells, lap 1 had %d", len(l.cells), len(ref.cells))
		}
		if l.output != ref.output {
			failf(-1, "rendered output differs from lap 1")
		}
	}
	return fails
}
