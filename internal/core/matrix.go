// The parallel experiment-matrix engine. Every experiment decomposes
// into independent Cells (scenario x proto x round); the engine runs
// them on a worker pool and reassembles results in canonical order, so
// a rendered table is byte-identical at any worker count.
//
// Determinism rests on two rules:
//
//  1. No shared RNG streams. Each cell derives its seed from
//     (base seed, experiment ID, scenario index, round) via CellSeed —
//     never from "whatever the previous cell left behind" — so the
//     execution schedule cannot leak into the measurements.
//  2. No result depends on completion order. A cell returns a value and
//     the engine stores it in the slot the cell was registered with, and
//     its ledger records in the element of a per-sweep slice its
//     registration index names; aggregation and the ledger block are
//     written single-threaded in registration order after every cell
//     has finished.
//
// The paired QUIC/TCP arms of one (scenario, round) cell deliberately
// share a seed: both arms must see the same emulated network (link
// configs, fault schedule, perturbation), the paper's §3.3 back-to-back
// pairing. Distinct (experiment, scenario, round) tuples never share a
// seed — see TestCellSeedsDistinctAcrossCells.
package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quiclab/internal/obs"
	"quiclab/internal/stats"
)

// Cell identifies one independent execution unit of an experiment
// sweep. Proto and Arm label which side of a paired comparison the
// cell runs (both arms of a QUIC-vs-QUIC pair carry Proto == QUIC, so
// Arm disambiguates); they do not enter seed derivation.
type Cell struct {
	Experiment string
	Scenario   int // canonical scenario index within the experiment
	Round      int
	Proto      Proto
	Arm        int // 0 = first arm of a pair, 1 = second
}

// Seed derives the cell's deterministic seed under the given base seed.
func (c Cell) Seed(base int64) int64 {
	return CellSeed(base, c.Experiment, c.Scenario, c.Round)
}

// id is the cell's identity as run-log records carry it.
func (c Cell) id() obs.CellID {
	return obs.CellID{Scenario: c.Scenario, Round: c.Round, Proto: c.Proto.String(), Arm: c.Arm}
}

// SeedDerivation names the cell-seed scheme, stamped into ledger
// manifests so runs are only diffed against runs that drew comparable
// seeds. Bump it if CellSeed's derivation ever changes.
const SeedDerivation = "fnv1a+splitmix64(base,experiment,scenario,round)/v1"

// CellSeed derives the seed shared by the paired arms of cell
// (experiment, scenario, round) under base seed `base`: an FNV-1a hash
// over the tuple followed by a SplitMix64 finalizer, so nearby tuples
// land far apart and distinct tuples collide with probability ~2^-63.
// The derivation depends only on the tuple — not on execution order,
// worker count, or any shared math/rand stream.
func CellSeed(base int64, experiment string, scenario, round int) int64 {
	fnv1a := fnv.New64a()
	var word [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		fnv1a.Write(word[:])
	}
	mix(uint64(base))
	fnv1a.Write([]byte(experiment))
	mix(uint64(scenario))
	mix(uint64(round))
	h := fnv1a.Sum64()
	// SplitMix64 finalizer: full avalanche.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	seed := int64(h >> 1) // non-negative: rand.NewSource ignores sign bits unevenly
	if seed == 0 {
		seed = 1
	}
	return seed
}

// CellTiming is the per-cell run metadata delivered to Options.Progress
// after each cell completes. Wall is host wall-clock (it never feeds
// back into experiment output, which stays deterministic).
type CellTiming struct {
	Cell      Cell
	Seed      int64
	Wall      time.Duration
	Resumed   bool // restored from a checkpoint instead of re-run (Wall is zero)
	Completed int  // cells finished so far, including this one
	Total     int  // cells in the sweep
}

// MatrixStats summarises a finished sweep, trace.Summary-style: counts
// plus the timing breakdown a progress UI or benchmark wants. CellWall
// is the summed per-cell wall time; CellWall/Wall approximates the
// achieved parallel speedup.
type MatrixStats struct {
	Experiment string
	Cells      int // registered cells
	Workers    int
	Wall       time.Duration // host wall-clock for the whole sweep
	CellWall   time.Duration // sum of per-cell wall times (run cells only)

	// Crash-tolerance accounting.
	SkippedCells int  // cells restored from a checkpoint instead of re-run
	Panics       int  // cells terminally failed by a contained panic, a spent event budget included
	Interrupted  bool // Options.Interrupt fired with cells still unrun
	UnrunCells   int  // cells never started (only when Interrupted)
	// Timeouts is always zero: no cell is abandoned on a host clock (a
	// wedged run panics and counts in Panics). It stays for code that
	// still reads it.
	Timeouts int

	// BundleErr is the first report-bundle write failure, if
	// Options.BundleDir was set (nil on success); BundleErrs counts
	// every failure and BundleErrSamples keeps the first few, so a
	// sweep with widespread IO failure reports its true scope rather
	// than its first symptom.
	BundleErr        error
	BundleErrs       int
	BundleErrSamples []string
	// LedgerErr is the first ledger write failure, if Options.Ledger
	// was set (nil on success); LedgerErrs counts every record lost
	// (the failed append plus every append refused afterwards).
	LedgerErr  error
	LedgerErrs int
	// CheckpointErr is the first checkpoint open/append failure; the
	// sweep keeps running without durability rather than aborting.
	CheckpointErr error
}

// Matrix is the worker-pool sweep engine. A sweep enqueues cells
// (AddCell: a function of the cell's seed, and the slot its value is
// stored in) and finalizers (aggregation and output, in registration
// order), then calls Run once; Experiment.Run does so for every
// registered experiment.
type Matrix struct {
	experiment string
	o          Options
	scenarios  int
	cells      []matrixCell
	finalize   []func()

	bundleMu         sync.Mutex
	bundleErr        error // first bundle write failure (surfaced in MatrixStats)
	bundleErrs       int
	bundleErrSamples []string

	// Checkpoint sink (nil unless Options.CheckpointDir is set). ckErr
	// holds the first append failure; the sweep continues without
	// durability rather than aborting.
	ck      *obs.Ledger
	ckErrMu sync.Mutex
	ckErr   error
}

// matrixCell is one registered cell: its identity, and its body behind
// the value type.
type matrixCell struct {
	cell Cell
	body cellBody
}

// cellBody is what the engine needs of a cell whatever its value type.
type cellBody interface {
	// run executes the cell on a worker and returns its value; a page
	// load also returns its Result, which the engine observes and recycles.
	run(seed int64, tp *tbPool) (value any, res *Result)
	// store puts a value run returned into the experiment's slot.
	store(value any)
	// restore stores the value a checkpointed payload holds instead. An
	// error rejects the payload — a checkpoint is outside input — and the
	// cell re-runs.
	restore(payload []byte) error
	// fail files a contained panic in the slot of a value that can say so
	// (harnessFailer); any other keeps its zero value.
	fail()
}

// harnessFailer is a cell value that records that its cell panicked
// instead of producing it.
type harnessFailer interface{ harnessFailed() }

// typedCell is the one cell shape: a function from the cell's seed to a
// JSON-round-trippable value, and the slot that value belongs in.
type typedCell[T any] struct {
	slot   *T
	fn     func(seed int64, tp *tbPool) (T, *Result)
	accept func(T) error // shape check on a restored value; nil accepts any
}

func (tc *typedCell[T]) run(seed int64, tp *tbPool) (any, *Result) { return tc.fn(seed, tp) }

func (tc *typedCell[T]) store(value any) { *tc.slot = value.(T) }

func (tc *typedCell[T]) fail() {
	if h, ok := any(tc.slot).(harnessFailer); ok {
		h.harnessFailed()
	}
}

func (tc *typedCell[T]) restore(payload []byte) error {
	var v T
	if err := json.Unmarshal(payload, &v); err != nil {
		return err
	}
	if tc.accept != nil {
		if err := tc.accept(v); err != nil {
			return err
		}
	}
	*tc.slot = v
	return nil
}

// NewMatrix creates an engine for one experiment sweep. The experiment
// name is the seed-derivation domain: two matrices with different names
// never hand out the same cell seeds.
func NewMatrix(experiment string, o Options) *Matrix {
	return &Matrix{experiment: experiment, o: o.withDefaults()}
}

// NextScenario reserves the next canonical scenario index. Call it once
// per distinct scenario, in a fixed order, before enqueueing that
// scenario's cells — the index feeds seed derivation.
func (m *Matrix) NextScenario() int {
	s := m.scenarios
	m.scenarios++
	return s
}

// AddCell enqueues one cell (c.Experiment is stamped by the matrix). run
// receives the cell's derived seed on an arbitrary worker and returns the
// cell's value: everything the experiment's aggregation and rendering
// read of the cell, as a type that survives a JSON round trip exactly.
// The engine stores it in *slot — from run's return value on a fresh run
// (never from a run that panicked: that slot keeps its zero value, or a
// harnessFailer's record of the failure), from the checkpointed bytes of
// the same value on resume — so run writes nothing itself. Read slots in
// a Defer step or after Run.
func AddCell[T any](m *Matrix, c Cell, slot *T, run func(seed int64) T) {
	addCell(m, c, slot, nil, func(seed int64, _ *tbPool) (T, *Result) { return run(seed), nil })
}

// addCell is AddCell for the engine's own cell shapes: run also receives
// the executing worker's testbed pool and may return the page load's
// Result, and accept (if non-nil) vets a restored value's shape.
func addCell[T any](m *Matrix, c Cell, slot *T, accept func(T) error,
	run func(seed int64, tp *tbPool) (T, *Result)) {
	c.Experiment = m.experiment
	m.cells = append(m.cells, matrixCell{cell: c, body: &typedCell[T]{slot: slot, fn: run, accept: accept}})
}

// Defer registers an aggregation step to run single-threaded, in
// registration order, after every cell has finished.
func (m *Matrix) Defer(fn func()) { m.finalize = append(m.finalize, fn) }

// Workers resolves Options.Parallelism: 0 means one worker per
// available CPU, 1 means strictly sequential.
func (o Options) Workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// cellLog is what the ledger block says about one cell: its
// deterministic record (nil when the cell surfaced no Result to the
// engine) and the host-clock provenance its timing record carries.
type cellLog struct {
	rec     *obs.CellRecord
	wall    time.Duration
	resumed bool
}

// interruptRequested polls Options.Interrupt without blocking.
func (m *Matrix) interruptRequested() bool {
	if m.o.Interrupt == nil {
		return false
	}
	select {
	case <-m.o.Interrupt:
		return true
	default:
		return false
	}
}

// collectErrors folds the engine's aggregated sink failures into stats.
func (m *Matrix) collectErrors(stats *MatrixStats) {
	m.bundleMu.Lock()
	stats.BundleErr = m.bundleErr
	stats.BundleErrs = m.bundleErrs
	stats.BundleErrSamples = m.bundleErrSamples
	m.bundleMu.Unlock()
	if m.o.Ledger != nil {
		stats.LedgerErr = m.o.Ledger.Err()
		stats.LedgerErrs = m.o.Ledger.ErrCount()
	}
}

// Run executes every queued cell on Options.Parallelism workers, then
// the finalizers, and returns the sweep's timing stats. Output assembled by the finalizers is
// byte-identical at any worker count, and — because a restored cell's
// slot holds the very value its original run returned — identical
// whether the sweep ran uninterrupted or was resumed from a checkpoint.
func (m *Matrix) Run() MatrixStats {
	stats := MatrixStats{
		Experiment: m.experiment,
		Cells:      len(m.cells),
		Workers:    m.o.Workers(),
	}
	if stats.Workers > len(m.cells) {
		stats.Workers = len(m.cells)
	}
	start := time.Now()
	restored := m.setupCheckpoint(&stats)
	// With a ledger active, each cell's records wait in the element
	// its registration index names until the block is written.
	var logs []cellLog
	if m.o.Ledger != nil {
		logs = make([]cellLog, len(m.cells))
	}
	var (
		mu   sync.Mutex
		done int
	)
	finishCell := func(c matrixCell, seed int64, log cellLog, fail *cellFailure) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if log.resumed {
			stats.SkippedCells++
		} else {
			stats.CellWall += log.wall
		}
		if fail != nil {
			stats.Panics++
		}
		if m.o.Progress != nil {
			m.o.Progress(CellTiming{
				Cell: c.cell, Seed: seed, Wall: log.wall, Resumed: log.resumed,
				Completed: done, Total: len(m.cells),
			})
		}
	}
	// A finished cell's value goes into the experiment's slot and its
	// records into logs[i], both on the worker: each is the cell's own, no
	// other worker touches it, and the finalizers and the ledger flush
	// wait for every worker.
	runCell := func(i int, tp *tbPool) {
		c := m.cells[i]
		seed := c.cell.Seed(m.o.Seed)
		var (
			log  cellLog
			fail *cellFailure
		)
		if ent, ok := restored[c.cell.id()]; ok {
			log.rec, log.resumed = m.tryRestore(c, seed, ent)
		}
		if !log.resumed {
			t0 := time.Now()
			out := m.runProtected(c, seed, tp)
			log.wall = time.Since(t0)
			if fail = out.fail; fail != nil {
				out.rec = m.recordCellFailure(c.cell, seed, fail)
				c.body.fail()
			} else {
				c.body.store(out.value)
				m.checkpointCell(c.cell, seed, out)
			}
			log.rec = out.rec
		}
		if logs != nil {
			logs[i] = log
		}
		finishCell(c, seed, log, fail)
	}
	// Claim-based pool: workers pull the next index until the queue
	// drains or Options.Interrupt fires; an interrupt lets in-flight
	// cells finish (and checkpoint) but hands out no new work.
	var next atomic.Int64
	claim := func() int {
		if m.interruptRequested() {
			return -1
		}
		n := int(next.Add(1)) - 1
		if n >= len(m.cells) {
			return -1
		}
		return n
	}
	if stats.Workers <= 1 {
		tp := newTBPool()
		for {
			i := claim()
			if i < 0 {
				break
			}
			runCell(i, tp)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < stats.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tp := newTBPool()
				for {
					i := claim()
					if i < 0 {
						return
					}
					runCell(i, tp)
				}
			}()
		}
		wg.Wait()
	}
	if m.ck != nil {
		if err := m.ck.Close(); err != nil {
			m.noteCheckpointErr(err)
		}
		m.ck = nil
	}
	m.ckErrMu.Lock()
	if stats.CheckpointErr == nil {
		stats.CheckpointErr = m.ckErr
	}
	m.ckErrMu.Unlock()
	// An interrupted sweep neither finalizes nor writes its ledger block:
	// aggregation over a partial matrix would be wrong and a partial block
	// would poison byte-level run diffs, while the checkpoint already
	// holds everything a resumed run needs to emit both in full.
	if done < len(m.cells) {
		stats.Interrupted = true
		stats.UnrunCells = len(m.cells) - done
	} else {
		for _, f := range m.finalize {
			f()
		}
	}
	stats.Wall = time.Since(start)
	if logs != nil && !stats.Interrupted {
		m.flushLedger(stats, logs)
	}
	m.cells, m.finalize = nil, nil
	m.collectErrors(&stats)
	if m.o.Stats != nil {
		m.o.Stats(stats)
	}
	return stats
}

// identity is the sweep's configuration as the ledger manifest and the
// checkpoint header both record it.
func (m *Matrix) identity() obs.SweepIdentity {
	return obs.SweepIdentity{
		Experiment:     m.experiment,
		BaseSeed:       m.o.Seed,
		Rounds:         m.o.Rounds,
		Quick:          m.o.Quick,
		Cells:          len(m.cells),
		Scenarios:      m.scenarios,
		CC:             m.o.CC,
		SeedDerivation: SeedDerivation,
		GoVersion:      runtime.Version(),
	}
}

// flushLedger writes this sweep's ledger block: the manifest, then the
// cells' deterministic records in registration order, then their
// isolated timing section, then the sweep stats. A write failure sticks
// in the ledger and surfaces through MatrixStats.LedgerErr.
func (m *Matrix) flushLedger(stats MatrixStats, logs []cellLog) {
	l := m.o.Ledger
	l.AppendManifest(obs.Manifest{
		SweepIdentity: m.identity(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		BundleDir:     m.o.BundleDir,
	})
	for i, log := range logs {
		rec := log.rec
		if rec == nil {
			// The cell's experiment never surfaced a Result to the engine:
			// record identity and seed so the run is still accounted for.
			c := m.cells[i].cell
			rec = m.cellRecord(c, c.Seed(m.o.Seed), obs.OutcomeUnobserved)
		}
		l.AppendCell(*rec)
	}
	for i, log := range logs {
		l.AppendTiming(obs.TimingRecord{
			CellID:  m.cells[i].cell.id(),
			WallMS:  float64(log.wall) / float64(time.Millisecond),
			Resumed: log.resumed,
		})
	}
	l.AppendSweepStats(obs.SweepStats{
		Experiment:   m.experiment,
		Workers:      stats.Workers,
		WallMS:       float64(stats.Wall) / float64(time.Millisecond),
		CellWallMS:   float64(stats.CellWall) / float64(time.Millisecond),
		SkippedCells: stats.SkippedCells,
		CellPanics:   stats.Panics,
	})
}

// prep applies the sweep-wide congestion-control override (Options.CC,
// which does change measurements) to a scenario on the calibrated
// default — a named controller, like fig3b's, keeps its own, and so does
// a fairness arm that names one — and the instruments the sweep's sinks
// read. Report bundles hold the qlog, so a BundleDir turns on all of
// them (instrumented). A ledger or checkpoint without bundles holds cell
// records: budgets and the anomaly pass, which reads the metric series
// and the counts every trace recorder folds — so Metrics and Profile,
// never the per-packet event log. Resume turns on what checkpointing
// does, so a resumed run's records match an uninterrupted one's. The
// instruments are passive, so with Options.CC empty the measured PLTs —
// and therefore rendered output — are unchanged.
func (m *Matrix) prep(sc Scenario) Scenario {
	if sc.CCAlgo == "" {
		sc.CCAlgo = m.o.CC
	}
	switch {
	case m.o.BundleDir != "":
		return sc.instrumented()
	case m.o.Ledger != nil || m.o.CheckpointDir != "" || m.o.ResumeFrom != "":
		sc.Metrics = true
		sc.Profile = true
	}
	return sc
}

// observe routes one cell's finished Result into the report bundle and
// returns the cell's deterministic ledger record (including the anomaly
// pass over the cell's live metric series and trace summary) when a
// ledger or a checkpoint will hold it, else nil. Runs on the worker,
// before the Result's testbed is recycled; disabled sinks cost one
// branch each.
func (m *Matrix) observe(c Cell, seed int64, res Result) *obs.CellRecord {
	bundleDir := m.writeBundle(c, seed, res)
	if m.o.Ledger == nil && m.ck == nil {
		return nil
	}
	rec := m.cellRecord(c, seed, obs.OutcomeCompleted)
	if !res.Completed {
		rec.Outcome = res.FailureReason.String()
	}
	rec.PLTSeconds = res.PLT.Seconds()
	rec.Bundle = bundleDir
	rec.Budgets = res.Budgets
	rec.Anomalies = obs.Detect(res.Metrics.Live(), res.ServerSummary(), res.EndTime, res.Budgets)
	return rec
}

// cellRecord starts a ledger record: the cell's identity, seed and outcome.
func (m *Matrix) cellRecord(c Cell, seed int64, outcome string) *obs.CellRecord {
	return &obs.CellRecord{
		Experiment: c.Experiment,
		CellID:     c.id(),
		Seed:       seed,
		Outcome:    outcome,
	}
}

// writeBundle writes one cell's report bundle and returns its directory
// (empty without a bundle dir). Runs on the worker: cells own distinct
// directories, so the only shared state is the first-error slot.
func (m *Matrix) writeBundle(c Cell, seed int64, res Result) string {
	if m.o.BundleDir == "" {
		return ""
	}
	dir := CellDir(m.o.BundleDir, c)
	if err := WriteBundle(dir, c, seed, res); err != nil {
		m.bundleMu.Lock()
		if m.bundleErr == nil {
			m.bundleErr = err
		}
		m.bundleErrs++
		if len(m.bundleErrSamples) < maxBundleErrSamples {
			m.bundleErrSamples = append(m.bundleErrSamples, fmt.Sprintf("%s: %v", dir, err))
		}
		m.bundleMu.Unlock()
	}
	return dir
}

// maxBundleErrSamples bounds MatrixStats.BundleErrSamples: enough to
// show a pattern (full disk vs one bad directory) without flooding.
const maxBundleErrSamples = 5

// --- cells that run a scenario -----------------------------------------------

// addRun enqueues cell c as a run of scenario *sc, prepped for the sweep:
// on a worker, run drives the prepped scenario at the cell's seed and
// returns the cell's value and the Result the engine observes and
// recycles. Cells of one scenario share sc; none may change it once
// enqueued.
func addRun[T any](m *Matrix, c Cell, slot *T, accept func(T) error, sc *Scenario,
	run func(sc Scenario, c Cell, seed int64, tp *tbPool) (T, Result)) {
	addCell(m, c, slot, accept, func(seed int64, tp *tbPool) (T, *Result) {
		v, res := run(m.prep(*sc), c, seed, tp)
		return v, &res
	})
}

// --- paired comparisons on the engine ----------------------------------------

// comparePaired enqueues `rounds` paired cells whose two arms — scenario
// a under protoA, b under protoB — produce the A and B samples of one
// Comparison (positive PctDiff = arm A faster). Both arms of a round
// share the cell seed and the round's path perturbation. An arm's value
// is its pltPayload.
func (m *Matrix) comparePaired(protoA Proto, a Scenario, protoB Proto, b Scenario) *Comparison {
	rounds := m.o.Rounds
	sci := m.NextScenario()
	cm := &Comparison{Rounds: rounds}
	outs := make([]pltPayload, 2*rounds) // arm-major: [2r]=arm A, [2r+1]=arm B
	for r := 0; r < rounds; r++ {
		addRun(m, Cell{Scenario: sci, Round: r, Proto: protoA, Arm: 0}, &outs[2*r], nil, &a, pairedArm)
		addRun(m, Cell{Scenario: sci, Round: r, Proto: protoB, Arm: 1}, &outs[2*r+1], nil, &b, pairedArm)
	}
	m.Defer(func() {
		as, bs := make([]float64, rounds), make([]float64, rounds)
		for r := range as {
			as[r], bs[r] = outs[2*r].Seconds(), outs[2*r+1].Seconds()
		}
		for _, p := range outs {
			p.recordFailure(&cm.Incomplete, &cm.Failures)
		}
		finishPaired(cm, as, bs)
	})
	return cm
}

// pairedArm is one arm of a paired round: a page load of sc, perturbed
// for the round, under the cell's protocol.
func pairedArm(sc Scenario, c Cell, seed int64, tp *tbPool) (pltPayload, Result) {
	res := sc.perturbed(c.Round).runPLT(c.Proto, seed, tp)
	return pltOf(res), res
}

// finishPaired fills the derived statistics of a paired comparison from
// its sample vectors (a first): means, percent difference, Welch's
// t-test at p < 0.01. Degenerate samples (zero variance, too few
// rounds) leave the cell inconclusive rather than significant.
func finishPaired(cm *Comparison, a, b []float64) {
	cm.QUICMean = durationMean(a)
	cm.TCPMean = durationMean(b)
	cm.PctDiff = stats.PercentDiff(stats.Mean(b), stats.Mean(a))
	if w, err := stats.Welch(a, b); err == nil {
		cm.P = w.P
		cm.Significant = w.P < 0.01
	}
}

// Compare enqueues the paired QUIC-vs-TCP rounds of sc (back-to-back
// per-round pairing, the paper's §3.3 procedure) and returns a
// *Comparison that is populated once Run returns.
func (m *Matrix) Compare(sc Scenario) *Comparison {
	return m.comparePaired(QUIC, sc, TCP, sc)
}

// ComparePair enqueues a QUIC-config-A vs QUIC-config-B comparison
// (positive = A faster): Fig 7 (0-RTT on/off) and friends.
func (m *Matrix) ComparePair(a, b Scenario) *Comparison {
	return m.comparePaired(QUIC, a, QUIC, b)
}

// ProxyCompare enqueues direct-QUIC vs proxied-QUIC (Fig 18; positive =
// direct faster).
func (m *Matrix) ProxyCompare(sc Scenario) *Comparison {
	direct := sc
	direct.Proxy = NoProxy
	proxied := sc
	proxied.Proxy = QUICProxy
	return m.ComparePair(direct, proxied)
}

// CompareWith runs one scenario's paired comparison (QUIC then TCP, same
// network seed per round — the paper's §3.3 procedure — with Welch's
// t-test at p < 0.01) on a fresh engine with o.Parallelism workers: the
// one-call form the claim tests use (cmd/quicsim builds its own Matrix).
func (sc Scenario) CompareWith(o Options) Comparison {
	m := NewMatrix("cli", o)
	cm := m.Compare(sc)
	m.Run()
	return *cm
}

// --- repeated single-arm sweeps ----------------------------------------------

// pltSeries accumulates one scenario's repeated single-arm page loads:
// the mean PLT plus the summed server-side false-loss counter (Fig 10's
// spurious-retransmit accounting). Valid after Matrix.Run.
type pltSeries struct {
	mean        time.Duration
	falseLosses int // summed over rounds
}

// runRounds enqueues o.Rounds runs of scenario sc under proto; mk derives
// each round's scenario from it (apply perturbed(round) there for
// paired-style path noise, or derive per-cell state from the seed).
func (m *Matrix) runRounds(proto Proto, sc Scenario, mk func(sc Scenario, round int, seed int64) Scenario) *pltSeries {
	rounds := m.o.Rounds
	sci := m.NextScenario()
	out := &pltSeries{}
	outs := make([]pltPayload, rounds)
	run := func(sc Scenario, c Cell, seed int64, tp *tbPool) (pltPayload, Result) {
		res := mk(sc, c.Round, seed).runPLT(c.Proto, seed, tp)
		p := pltOf(res)
		p.FalseLoss = res.ServerTrace.Counter("false_loss")
		return p, res
	}
	for r := range outs {
		addRun(m, Cell{Scenario: sci, Round: r, Proto: proto}, &outs[r], nil, &sc, run)
	}
	m.Defer(func() {
		var total time.Duration
		for _, p := range outs {
			total += time.Duration(p.PLTNS)
			out.falseLosses += p.FalseLoss
		}
		out.mean = total / time.Duration(rounds)
	})
	return out
}
