package core

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"quiclab/internal/cellular"
	"quiclab/internal/device"
	"quiclab/internal/heatmap"
	"quiclab/internal/netem"
	"quiclab/internal/obs"
	"quiclab/internal/statemachine"
	"quiclab/internal/stats"
	"quiclab/internal/trace"
	"quiclab/internal/video"
	"quiclab/internal/web"
)

// Options tunes an experiment run.
type Options struct {
	// Rounds is the paired-measurement count per cell (paper: >= 10).
	// 0 means 10 (or 3 in Quick mode).
	Rounds int
	// Quick trims the matrices for fast CI/bench runs.
	Quick bool
	// Seed is the base seed (0 means 1).
	Seed int64
	// Parallelism is the matrix-engine worker count: 0 = one worker per
	// available CPU, 1 = strictly sequential. Experiment output is
	// byte-identical at any value (see matrix.go).
	Parallelism int
	// Progress, if non-nil, receives per-cell timing after each cell of
	// a sweep completes. Calls are serialized; completion order varies
	// with Parallelism (rendered output does not).
	Progress func(CellTiming)
	// BundleDir, when set, makes every matrix cell write a report
	// bundle (summary JSON, time-series CSV, qlog event stream,
	// inferred state machine as DOT) under
	// BundleDir/<experiment>/s<scenario>/r<round>-<arm>-<proto>/.
	// Every instrument (Scenario.Metrics, TraceEvents, Profile) is
	// forced on; all are passive, so rendered experiment output stays
	// byte-identical. The first write error is reported via
	// MatrixStats.BundleErr.
	BundleDir string
	// Ledger, if non-nil, makes every sweep append its run ledger
	// block: a manifest (config digest, seed-derivation scheme), one
	// deterministic record per cell (outcome, failure class, PLT,
	// bundle path, stall budgets, anomaly findings), and an isolated
	// timing section. A ledger turns on what its records read —
	// Scenario.Metrics and Profile, not the per-packet event log (the
	// anomaly pass reads the counts every trace recorder folds). All
	// passive, so rendered output and bundle trees are byte-identical
	// with or without it, and its cell records are the same with or
	// without BundleDir apart from the bundle path. The first write
	// error is reported via MatrixStats.LedgerErr.
	Ledger *obs.Ledger

	// CheckpointDir, when set, makes the sweep durable: every completed
	// cell — of every experiment; a cell is a value the engine stores —
	// is appended (fsync'd, torn-write-safe JSONL) to
	// CheckpointDir/<experiment>.ckpt as it finishes. Re-running the
	// same configuration against the same directory resumes: completed
	// cells are verified (config resume key, per-cell seed, the value's
	// shape, bundle presence when BundleDir is set and the cell writes
	// one) and their values stored instead of re-run, so the resumed
	// run's rendered output, bundle tree, and ledger deterministic
	// section are byte-identical to an uninterrupted run's.
	// Checkpointed cells hold ledger records, so checkpointing (and
	// resuming) turns on the same instruments Ledger does; failures are
	// reported via MatrixStats.CheckpointErr.
	CheckpointDir string
	// ResumeFrom, when set, names a checkpoint to restore completed
	// cells from without writing one — a directory (the per-experiment
	// file is resolved inside it) or a single .ckpt file; quicreport
	// render restores through it. Empty means CheckpointDir, so plain
	// re-runs resume in place.
	ResumeFrom string
	// Interrupt, when non-nil, requests a graceful drain once closed:
	// in-flight cells finish (and checkpoint), no new cells start, and
	// Run returns with MatrixStats.Interrupted set. An interrupted
	// sweep skips finalizers and the ledger flush — its partial state
	// lives in the checkpoint, and a resume reproduces the full run.
	Interrupt <-chan struct{}
	// Stats, if non-nil, receives each sweep's MatrixStats when its
	// Run returns — how a CLI driving experiments through the opaque
	// Experiment.Run signature observes skips, failures, interrupts and
	// aggregated sink errors.
	Stats func(MatrixStats)
	// CC, when set, is the congestion-control algorithm (a cc.Algorithms
	// registry name) for every cell whose controller is the calibrated
	// default — page loads, bulk downloads, video, and fairness arms alike
	// — the quicbench/quicsim -cc flag. A named controller keeps its own
	// (fig3b's bbr, the tournament's arms). Unlike the observability
	// options this is NOT passive: it changes the measured transport, so
	// rendered output legitimately differs.
	CC string
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Rounds == 0 {
		if o.Quick {
			o.Rounds = 3
		} else {
			o.Rounds = 10
		}
	}
	if o.ResumeFrom == "" {
		o.ResumeFrom = o.CheckpointDir
	}
	return o
}

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	ID    string
	Title string
	// Paper summarises what the paper reported, printed alongside our
	// measurements so EXPERIMENTS.md juxtaposes both.
	Paper string
	Run   func(w io.Writer, o Options)
}

// Experiments returns the registry, one entry per table/figure, in paper
// order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig2", "Fig 2: server calibration (PLT of 10MB at 100Mbps)",
			"public default ~2x slower than tuned; GAE adds variable wait", runFig2},
		{"fig3a", "Fig 3a: inferred QUIC CC state machine (Cubic)",
			"states: Init, SlowStart, CA, CA-Maxed, AppLimited, Recovery, RTO, TLP", runFig3a},
		{"fig3b", "Fig 3b: inferred QUIC BBR state machine",
			"states: Startup, Drain, ProbeBW, ProbeRTT (+recovery)", runFig3b},
		{"fig4", "Fig 4: fairness timelines over a shared 5Mbps bottleneck",
			"QUIC ~2x TCP's share; >50% even vs TCPx2", runFig4},
		{"table4", "Table 4: average throughput when competing",
			"QUIC 2.71 vs TCP 1.62; QUIC ~2.8 vs TCPx2 0.7/0.96; QUIC 2.75 vs TCPx4 ~0.4 each", runTable4},
		{"fig5", "Fig 5: congestion windows while competing",
			"QUIC sustains a larger cwnd with more frequent increases", runFig5},
		{"fig6a", "Fig 6a: PLT heatmap, rate x object size",
			"QUIC wins everywhere; biggest gains for small objects (0-RTT)", runFig6a},
		{"fig6b", "Fig 6b: PLT heatmap, rate x object count",
			"QUIC loses only for 100/200 small objects at high rates", runFig6b},
		{"fig7", "Fig 7: 0-RTT benefit heatmap",
			"large gains for small objects; insignificant at 10MB", runFig7},
		{"fig8", "Fig 8: PLT heatmaps with loss and delay",
			"QUIC wins under loss and added delay, except many small objects", runFig8},
		{"fig9", "Fig 9: cwnd over time at 100Mbps with 1% loss",
			"QUIC recovers faster and holds a larger window than TCP", runFig9},
		{"fig10", "Fig 10: NACK threshold vs reordering (112ms RTT, 10ms jitter)",
			"threshold 3 cripples QUIC; larger thresholds restore performance", runFig10},
		{"fig11", "Fig 11: variable bandwidth 50-150Mbps, 210MB transfer",
			"QUIC 79Mbps (std 31) vs TCP 46Mbps (std 12)", runFig11},
		{"fig12", "Fig 12: PLT heatmaps on mobile devices",
			"QUIC's gains diminish on Nexus6 and largely disappear on MotoG", runFig12},
		{"fig13", "Fig 13: state machines, MotoG vs desktop (50Mbps)",
			"MotoG server 58% ApplicationLimited vs desktop 7%", runFig13},
		{"table5", "Table 5: cellular network characteristics (measured)",
			"Verizon/Sprint 3G/LTE throughput, RTT, reordering, loss", runTable5},
		{"fig14", "Fig 14: PLT heatmaps over cellular profiles",
			"LTE like low-rate desktop; 3G gains diminish (reordering)", runFig14},
		{"table6", "Table 6: video QoE at 100Mbps with 1% loss",
			"equal QoE for low qualities; QUIC loads ~2x more hd2160 with ~30% fewer rebuffers/s", runTable6},
		{"fig15", "Fig 15: QUIC 37's MACW 430 vs 2000",
			"MACW 2000 lifts large-object/high-rate performance", runFig15},
		{"fig17", "Fig 17: QUIC (direct) vs proxied TCP",
			"proxy closes the gap at low loss/latency; QUIC still wins at high delay", runFig17},
		{"fig18", "Fig 18: QUIC direct vs proxied QUIC",
			"proxy hurts small objects (no 0-RTT), helps large objects under loss", runFig18},
		{"ablations", "Ablations: HyStart, pacing, N-emulation, DSACK",
			"design-choice sensitivity called out in DESIGN.md", runAblations},
		{"obs", "Observability: per-run transport event summaries (qlog-style)",
			"extension: the instrumentation substrate (no paper counterpart)", runObservability},
		{"outage", "Outage: fault-injected handoffs and failure classification",
			"extension: the robustness harness (no paper counterpart)", runOutage},
		{"cctournament", "CC tournament: all-pairs fairness across the registry",
			"extension: N-way Table 4 over every registered congestion controller", runTournament},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared matrices -------------------------------------------------------

var (
	fullRates  = []float64{5, 10, 50, 100}
	quickRates = []float64{10, 100}
	fullSizes  = []int{5 << 10, 10 << 10, 100 << 10, 1 << 20, 10 << 20}
	quickSizes = []int{10 << 10, 1 << 20}
	fullCounts = []int{1, 2, 5, 10, 100, 200}
	quickCount = []int{1, 10, 100}
)

func rates(o Options) []float64 {
	if o.Quick {
		return quickRates
	}
	return fullRates
}

func sizes(o Options) []int {
	if o.Quick {
		return quickSizes
	}
	return fullSizes
}

func counts(o Options) []int {
	if o.Quick {
		return quickCount
	}
	return fullCounts
}

func sizeLabel(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	default:
		return fmt.Sprintf("%dKB", b>>10)
	}
}

func rateLabel(m float64) string { return fmt.Sprintf("%gMbps", m) }

func countLabel(n int) string { return fmt.Sprintf("%dobj", n) }

// labels renders a sweep axis as heatmap row or column labels.
func labels[T any](xs []T, label func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = label(x)
	}
	return out
}

// variant is a named modification of a sweep's base scenario.
type variant struct {
	name string
	mod  func(*Scenario)
}

// pltHeatmap enqueues one rate x column heatmap sweep on m and returns
// its renderer, to call after m.Run(). compare picks the comparison
// flavour (Compare, ComparePair, ProxyCompare).
func pltHeatmap(m *Matrix, title string, o Options, cols []string,
	scenarioAt func(rate float64, col int) Scenario,
	compare func(m *Matrix, sc Scenario) *Comparison) func(w io.Writer) {
	rs := rates(o)
	hm := heatmap.New(title, "rate", labels(rs, rateLabel), cols)
	for i, rate := range rs {
		for j := range cols {
			cm := compare(m, scenarioAt(rate, j))
			m.Defer(func() { hm.Set(i, j, cm.PctDiff, cm.Significant) })
		}
	}
	return func(w io.Writer) { fmt.Fprint(w, hm.Render()) }
}

func defaultCompare(m *Matrix, sc Scenario) *Comparison { return m.Compare(sc) }

// renderAll writes each heatmap renderer's output, a blank line after each.
func renderAll(w io.Writer, renders []func(io.Writer)) {
	for _, render := range renders {
		render(w)
		fmt.Fprintln(w)
	}
}

// --- individual experiments --------------------------------------------------

func runFig2(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig2", o)
	base := Scenario{
		Seed:     o.Seed,
		RateMbps: 100,
		Page:     web.Page{NumObjects: 1, ObjectSize: 10 << 20},
		Device:   device.Desktop,
	}
	configs := []struct {
		name string
		mod  func(sc Scenario, seed int64) Scenario
	}{
		{"public-default (MACW=107 + ssthresh bug)", func(sc Scenario, _ int64) Scenario {
			sc.MACW = 107
			sc.SSThreshBug = true
			return sc
		}},
		{"GAE (tuned + variable service wait)", func(sc Scenario, seed int64) Scenario {
			// The variable service wait draws from a per-cell rng derived
			// from the cell seed — no stream shared across cells.
			rng := rand.New(rand.NewSource(seed))
			sc.ServiceWait = func() time.Duration {
				return 100*time.Millisecond + time.Duration(rng.Int63n(int64(400*time.Millisecond)))
			}
			return sc
		}},
		{"tuned (MACW=430, bug fixed)", func(sc Scenario, _ int64) Scenario { return sc }},
	}
	means := make([]*pltSeries, len(configs))
	for ci, cfg := range configs {
		means[ci] = m.runRounds(QUIC, func(_ int, seed int64) Scenario {
			return cfg.mod(base, seed)
		})
	}
	m.Run()
	fmt.Fprintln(w, "QUIC server configurations, mean PLT of a 10MB object at 100Mbps:")
	var tuned time.Duration
	for ci, cfg := range configs {
		mean := means[ci].mean
		if ci == len(configs)-1 {
			tuned = mean
		}
		fmt.Fprintf(w, "  %-42s %v\n", cfg.name, mean.Round(time.Millisecond))
	}
	if tuned > 0 {
		fmt.Fprintf(w, "(paper: the untuned public release took ~2x the tuned PLT)\n")
	}
}

// stateMachineTraces enqueues a spread of scenarios on m and returns the
// server-side CC trace slots, filled once m.Run() returns.
func stateMachineTraces(m *Matrix, o Options, ccAlgo string) []statemachine.Trace {
	base := Scenario{Seed: o.Seed, Device: device.Desktop, CCAlgo: ccAlgo}
	scenarios := []Scenario{}
	add := func(mod func(*Scenario)) {
		sc := base
		mod(&sc)
		scenarios = append(scenarios, sc)
	}
	add(func(sc *Scenario) { sc.RateMbps = 100; sc.Page = web.Page{NumObjects: 1, ObjectSize: 10 << 20} })
	add(func(sc *Scenario) {
		sc.RateMbps = 10
		sc.Page = web.Page{NumObjects: 1, ObjectSize: 1 << 20}
		sc.LossPct = 1
	})
	add(func(sc *Scenario) {
		sc.RateMbps = 20
		sc.Page = web.Page{NumObjects: 1, ObjectSize: 5 << 20}
		sc.RTT = 112 * time.Millisecond
		sc.Jitter = 10 * time.Millisecond
	})
	add(func(sc *Scenario) {
		sc.RateMbps = 50
		sc.Page = web.Page{NumObjects: 1, ObjectSize: 10 << 20}
		sc.Device = device.MotoG
	})
	add(func(sc *Scenario) { sc.RateMbps = 100; sc.Page = web.Page{NumObjects: 100, ObjectSize: 10 << 10} })
	// Many small objects under heavy loss: tail losses exercise TLP and
	// RTO. Several instances (distinct seeds) make the probabilistic
	// tail-loss states reliably visited.
	for k := 0; k < 3; k++ {
		add(func(sc *Scenario) {
			sc.RateMbps = 10
			sc.Page = web.Page{NumObjects: 20, ObjectSize: 30 << 10}
			sc.LossPct = 8
		})
	}
	if !o.Quick {
		add(func(sc *Scenario) {
			sc.RateMbps = 5
			sc.Page = web.Page{NumObjects: 1, ObjectSize: 1 << 20}
			sc.LossPct = 0.1
		})
		add(func(sc *Scenario) {
			sc.RateMbps = 100
			sc.Page = web.Page{NumObjects: 1, ObjectSize: 10 << 20}
			sc.ExtraDelay = 100 * time.Millisecond
		})
	}
	traces := make([]statemachine.Trace, len(scenarios))
	for i, sc := range scenarios {
		m.addStateTrace(sc, &traces[i])
	}
	return traces
}

// addStateTrace enqueues one QUIC page load of sc, prepped, as a cell
// whose value is the server's congestion-control state transitions.
func (m *Matrix) addStateTrace(sc Scenario, slot *statemachine.Trace) {
	sc = m.prep(sc)
	addCell(m, Cell{Scenario: m.NextScenario(), Proto: QUIC}, slot, nil,
		func(seed int64, tp *tbPool) (statemachine.Trace, *Result) {
			res := sc.runPLT(QUIC, seed, tp)
			// A copy: the recorder is Reset when the testbed is recycled.
			events := append([]trace.StateEvent(nil), res.ServerTrace.States...)
			return statemachine.Trace{Events: events, End: res.EndTime}, &res
		})
}

func runFig3a(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig3a", o)
	traces := stateMachineTraces(m, o, "")
	m.Run()
	model := statemachine.Infer(traces)
	fmt.Fprintln(w, "Inferred QUIC (Cubic) congestion-control state machine")
	fmt.Fprintln(w, "(from execution traces across the scenario matrix, Synoptic-style):")
	fmt.Fprint(w, model.String())
	var paths [][]string
	for _, tr := range traces {
		paths = append(paths, tr.Path())
	}
	ivs := statemachine.MineInvariants(paths)
	fmt.Fprintf(w, "mined temporal invariants: %d (examples follow)\n", len(ivs))
	for i, iv := range ivs {
		if i >= 8 {
			break
		}
		fmt.Fprintf(w, "  %s\n", iv)
	}
	fmt.Fprintln(w, "\nGraphviz DOT:")
	fmt.Fprint(w, model.DOT())
}

func runFig3b(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig3b", o)
	traces := stateMachineTraces(m, o, "bbr")
	m.Run()
	model := statemachine.Infer(traces)
	fmt.Fprintln(w, "Inferred QUIC BBR state machine (experimental CC, Fig 3b):")
	fmt.Fprint(w, model.String())
	fmt.Fprintln(w, "\nGraphviz DOT:")
	fmt.Fprint(w, model.DOT())
}

func runFig4(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig4", o)
	dur := 60 * time.Second
	if o.Quick {
		dur = 20 * time.Second
	}
	variants := [][]FairArm{ProtoArms(QUIC, TCP), ProtoArms(QUIC, TCP, TCP)}
	results := make([][]FairFlow, len(variants))
	for vi, arms := range variants {
		addFairness(m, Cell{Scenario: m.NextScenario()}, &results[vi], nil, table4Path, arms, dur, allFlows)
	}
	m.Run()
	for _, res := range results {
		fmt.Fprintf(w, "flows sharing a 5Mbps bottleneck (RTT 36ms, buffer 30KB):\n")
		for _, f := range res {
			fmt.Fprintf(w, "  %-8s avg %.2f Mbps; per-second series (Mbps):", f.Name, f.Throughput)
			for i, v := range f.Series {
				if i%5 == 0 {
					fmt.Fprintf(w, " %.1f", v)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

func runTable4(w io.Writer, o Options) {
	o = o.withDefaults()
	dur := 60 * time.Second
	runs := o.Rounds
	if o.Quick {
		dur = 20 * time.Second
		runs = 3
	}
	rows := RunFairnessScenarios(o, "table4", runs, dur, []FairnessScenario{
		{"QUIC vs TCP", table4Path, ProtoArms(QUIC, TCP)},
		{"QUIC vs TCPx2", table4Path, ProtoArms(QUIC, TCP, TCP)},
		{"QUIC vs TCPx4", table4Path, ProtoArms(QUIC, TCP, TCP, TCP, TCP)},
	})
	fmt.Fprintf(w, "%-16s %-8s %-22s\n", "Scenario", "Flow", "Avg thrpt Mbps (std)")
	cur := ""
	for _, r := range rows {
		name := r.Scenario
		if name == cur {
			name = ""
		} else {
			cur = r.Scenario
		}
		fmt.Fprintf(w, "%-16s %-8s %.2f (%.2f)\n", name, r.Flow, r.Mean, r.Std)
	}
	fmt.Fprintln(w, "(paper: QUIC 2.71 (0.46) vs TCP 1.62 (1.27); QUIC keeps >50% vs TCPx2 and TCPx4)")
}

func runFig5(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig5", o)
	dur := 30 * time.Second
	var res []FairFlow
	addFairness(m, Cell{Scenario: m.NextScenario()}, &res, nil, table4Path, ProtoArms(QUIC, TCP), dur, allFlows)
	m.Run()
	for _, f := range res {
		fmt.Fprintf(w, "%s cwnd over time (KB, sampled every ~1s):\n  ", f.Name)
		for _, s := range f.Cwnd {
			fmt.Fprintf(w, "%.0f ", s.V/1024)
		}
		if len(f.Cwnd) == 0 {
			fmt.Fprint(w, "(no samples)")
		}
		fmt.Fprintln(w)
	}
}

func runFig6a(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig6a", o)
	ss := sizes(o)
	cols := labels(ss, sizeLabel)
	render := pltHeatmap(m, "PLT % difference (positive = QUIC faster); object sizes", o, cols,
		func(rate float64, j int) Scenario {
			return Scenario{Seed: o.Seed, RateMbps: rate, Page: web.Page{NumObjects: 1, ObjectSize: ss[j]}, Device: device.Desktop}
		}, defaultCompare)
	m.Run()
	render(w)
}

func runFig6b(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig6b", o)
	cs := counts(o)
	cols := labels(cs, countLabel)
	render := pltHeatmap(m, "PLT % difference (positive = QUIC faster); 10KB objects x count", o, cols,
		func(rate float64, j int) Scenario {
			return Scenario{Seed: o.Seed, RateMbps: rate, Page: web.Page{NumObjects: cs[j], ObjectSize: 10 << 10}, Device: device.Desktop}
		}, defaultCompare)
	m.Run()
	render(w)
}

func runFig7(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig7", o)
	ss := sizes(o)
	cols := labels(ss, sizeLabel)
	render := pltHeatmap(m, "PLT % gain from 0-RTT (positive = 0-RTT faster)", o, cols,
		func(rate float64, j int) Scenario {
			return Scenario{Seed: o.Seed, RateMbps: rate, Page: web.Page{NumObjects: 1, ObjectSize: ss[j]}, Device: device.Desktop}
		},
		func(m *Matrix, sc Scenario) *Comparison {
			with := sc
			without := sc
			without.Disable0RTT = true
			return m.ComparePair(with, without)
		})
	m.Run()
	render(w)
}

func runFig8(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig8", o)
	conditions := []variant{
		{"0.1% loss", func(sc *Scenario) { sc.LossPct = 0.1 }},
		{"1% loss", func(sc *Scenario) { sc.LossPct = 1 }},
		{"+100ms delay", func(sc *Scenario) { sc.ExtraDelay = 100 * time.Millisecond }},
	}
	ss := sizes(o)
	sCols := labels(ss, sizeLabel)
	cs := counts(o)
	cCols := labels(cs, countLabel)
	var renders []func(io.Writer)
	for _, cond := range conditions {
		renders = append(renders, pltHeatmap(m, fmt.Sprintf("object sizes, %s", cond.name), o, sCols,
			func(rate float64, j int) Scenario {
				sc := Scenario{Seed: o.Seed, RateMbps: rate, Page: web.Page{NumObjects: 1, ObjectSize: ss[j]}, Device: device.Desktop}
				cond.mod(&sc)
				return sc
			}, defaultCompare))
	}
	for _, cond := range conditions {
		if o.Quick && cond.name != "1% loss" {
			continue
		}
		renders = append(renders, pltHeatmap(m, fmt.Sprintf("object counts (10KB each), %s", cond.name), o, cCols,
			func(rate float64, j int) Scenario {
				sc := Scenario{Seed: o.Seed, RateMbps: rate, Page: web.Page{NumObjects: cs[j], ObjectSize: 10 << 10}, Device: device.Desktop}
				cond.mod(&sc)
				return sc
			}, defaultCompare))
	}
	m.Run()
	renderAll(w, renders)
}

func runFig9(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig9", o)
	sc := m.prep(Scenario{
		Seed: o.Seed, RateMbps: 100, LossPct: 1,
		Page:   web.Page{NumObjects: 1, ObjectSize: 20 << 20},
		Device: device.Desktop,
	})
	protos := []Proto{QUIC, TCP}
	traces := make([]ThroughputTrace, len(protos))
	for i, proto := range protos {
		sci := m.NextScenario()
		addCell(m, Cell{Scenario: sci, Proto: proto}, &traces[i], nil,
			func(seed int64, tp *tbPool) (ThroughputTrace, *Result) {
				tr, res := sc.runThroughput(proto, seed, tp)
				return tr, &res
			})
	}
	m.Run()
	for i, proto := range protos {
		tr := traces[i]
		fmt.Fprintf(w, "%s: avg %.1f Mbps; cwnd over time (KB, ~1s samples):\n  ", proto, tr.AvgMbps)
		for _, s := range tr.Cwnd {
			fmt.Fprintf(w, "%.0f ", s.V/1024)
		}
		fmt.Fprintln(w)
	}
}

func runFig10(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig10", o)
	base := Scenario{
		Seed: o.Seed, RateMbps: 20,
		RTT: 112 * time.Millisecond, Jitter: 10 * time.Millisecond,
		Page:   web.Page{NumObjects: 1, ObjectSize: 10 << 20},
		Device: device.Desktop,
	}
	thresholds := []int{3, 10, 25, 50}
	if o.Quick {
		thresholds = []int{3, 25}
	}
	perturbedRounds := func(sc Scenario) func(int, int64) Scenario {
		return func(r int, _ int64) Scenario { return sc.perturbed(r) }
	}
	tcpSeries := m.runRounds(TCP, perturbedRounds(base))
	thresholdSeries := make([]*pltSeries, len(thresholds))
	for ti, th := range thresholds {
		sc := base
		sc.NACKThreshold = th
		thresholdSeries[ti] = m.runRounds(QUIC, perturbedRounds(sc))
	}
	// Extensions: the detectors the QUIC team said they were exploring
	// (dynamic threshold, time-based) — both fix the pathology without a
	// hand-tuned constant.
	exts := []variant{
		{"QUIC adaptive NACK (RR-TCP style)", func(sc *Scenario) { sc.AdaptiveNACK = true }},
		{"QUIC time-based (RACK style)", func(sc *Scenario) { sc.TimeLossDetection = true }},
	}
	extSeries := make([]*pltSeries, len(exts))
	for ei, ext := range exts {
		sc := base
		ext.mod(&sc)
		extSeries[ei] = m.runRounds(QUIC, perturbedRounds(sc))
	}
	m.Run()
	fmt.Fprintln(w, "10MB download, 112ms RTT with 10ms jitter (deep reordering):")
	fmt.Fprintf(w, "  %-24s %v\n", "TCP (DSACK-adaptive)", tcpSeries.mean.Round(time.Millisecond))
	for ti, th := range thresholds {
		s := thresholdSeries[ti]
		fmt.Fprintf(w, "  QUIC NACK threshold %-4d %v (false losses/run: %d)\n",
			th, s.mean.Round(time.Millisecond), s.falseLosses/o.Rounds)
	}
	for ei, ext := range exts {
		s := extSeries[ei]
		fmt.Fprintf(w, "  %-24s %v (false losses/run: %d)\n",
			ext.name, s.mean.Round(time.Millisecond), s.falseLosses/o.Rounds)
	}
}

func runFig11(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig11", o)
	size := 210 << 20
	if o.Quick {
		size = 30 << 20
	}
	sc := m.prep(Scenario{
		Seed:  o.Seed,
		VarBW: &VarBW{MinMbps: 50, MaxMbps: 150, Interval: time.Second},
		// A shallow (consumer-grade) buffer: down-shifts overflow it, so
		// loss recovery quality decides the achieved average.
		QueueBytes: 64 << 10,
		Page:       web.Page{NumObjects: 1, ObjectSize: size},
		Device:     device.Desktop,
	})
	const runs = 3
	protos := []Proto{QUIC, TCP}
	traces := make([][runs]ThroughputTrace, len(protos))
	for pi, proto := range protos {
		sci := m.NextScenario()
		for r := 0; r < runs; r++ {
			addCell(m, Cell{Scenario: sci, Round: r, Proto: proto}, &traces[pi][r], nil,
				func(seed int64, tp *tbPool) (ThroughputTrace, *Result) {
					tr, res := sc.runThroughput(proto, seed, tp)
					tr.Cwnd = nil // not rendered; the series is what Fig 11 plots
					return tr, &res
				})
		}
	}
	m.Run()
	fmt.Fprintf(w, "%s download, bandwidth resampled uniformly in [50,150] Mbps every second:\n", sizeLabel(size))
	for pi, proto := range protos {
		avgs := make([]float64, runs)
		for r, tr := range traces[pi] {
			avgs[r] = tr.AvgMbps
		}
		fmt.Fprintf(w, "  %-5s avg %.0f Mbps (std %.0f); run-1 series:", proto, meanF(avgs), stdF(avgs))
		for i, v := range traces[pi][0].Series {
			if i%2 == 0 {
				fmt.Fprintf(w, " %.0f", v)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(paper: QUIC 79 Mbps (std 31) vs TCP 46 Mbps (std 12))")
}

func runFig12(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig12", o)
	mobileRates := []float64{5, 10, 50}
	if o.Quick {
		mobileRates = []float64{10, 50}
	}
	ss := sizes(o)
	cols := labels(ss, sizeLabel)
	devs := []device.Profile{device.MotoG, device.Nexus6}
	hms := make([]*heatmap.Map, len(devs))
	for di, dev := range devs {
		hm := heatmap.New(fmt.Sprintf("%s (WiFi): PLT %% difference", dev.Name), "rate", labels(mobileRates, rateLabel), cols)
		hms[di] = hm
		for i, rate := range mobileRates {
			for j, size := range ss {
				sc := Scenario{Seed: o.Seed, RateMbps: rate, Page: web.Page{NumObjects: 1, ObjectSize: size}, Device: dev}
				cm := m.Compare(sc)
				m.Defer(func() { hm.Set(i, j, cm.PctDiff, cm.Significant) })
			}
		}
	}
	m.Run()
	for _, hm := range hms {
		fmt.Fprint(w, hm.Render())
		fmt.Fprintln(w)
	}
}

func runFig13(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig13", o)
	devs := []device.Profile{device.MotoG, device.Desktop}
	traces := make([]statemachine.Trace, len(devs))
	for di, dev := range devs {
		m.addStateTrace(Scenario{
			Seed: o.Seed, RateMbps: 50,
			Page:   web.Page{NumObjects: 1, ObjectSize: 20 << 20},
			Device: dev,
		}, &traces[di])
	}
	m.Run()
	models := map[string]*statemachine.Model{}
	for di, dev := range devs {
		model := statemachine.Infer(traces[di : di+1])
		models[dev.Name] = model
		fmt.Fprintf(w, "server-side CC state machine with a %s client (50Mbps, no loss/delay):\n", dev.Name)
		fmt.Fprint(w, model.String())
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "time-in-state shift, Desktop -> MotoG (largest changes first):")
	for _, d := range statemachine.Diff(models["Desktop"], models["MotoG"]) {
		fmt.Fprintf(w, "  %s\n", d)
	}
	fmt.Fprintln(w, "(paper: MotoG pushes the server into ApplicationLimited 58% of the time vs 7% on desktop)")
}

func runTable5(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("table5", o)
	dur := 120 * time.Second
	if o.Quick {
		dur = 20 * time.Second
	}
	profiles := cellular.Profiles()
	measured := make([]cellular.Measurement, len(profiles))
	for i, p := range profiles {
		sci := m.NextScenario()
		AddCell(m, Cell{Scenario: sci}, &measured[i], func(seed int64) cellular.Measurement {
			return cellular.Probe(p, seed, dur)
		})
	}
	m.Run()
	fmt.Fprintf(w, "%-14s %-34s %s\n", "network", "measured (emulated, probed)", "nominal (paper Table 5)")
	for i, p := range profiles {
		fmt.Fprintf(w, "%-14s %-34s thrpt=%.2f rtt=%v reorder=%.2f%% loss=%.2f%%\n",
			p.Name, measured[i].String(), p.ThroughputMbps, p.RTT, p.ReorderPct, p.LossPct)
	}
}

func runFig14(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig14", o)
	cellSizes := []int{10 << 10, 100 << 10, 1 << 20}
	cols := labels(cellSizes, sizeLabel)
	profiles := cellular.Profiles()
	rowLabels := labels(profiles, func(p cellular.Profile) string { return p.Name })
	hm := heatmap.New("cellular networks: PLT % difference", "network", rowLabels, cols)
	for i := range profiles {
		for j, size := range cellSizes {
			p := profiles[i]
			sc := Scenario{Seed: o.Seed, Cell: &p, Page: web.Page{NumObjects: 1, ObjectSize: size}, Device: device.Desktop}
			cm := m.Compare(sc)
			m.Defer(func() { hm.Set(i, j, cm.PctDiff, cm.Significant) })
		}
	}
	m.Run()
	fmt.Fprint(w, hm.Render())
}

func runTable6(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("table6", o)
	qualities := video.Qualities()
	if o.Quick {
		qualities = []video.Quality{video.Tiny, video.HD2160}
	}
	runs := o.Rounds
	if runs > 5 {
		runs = 5
	}
	protos := []Proto{QUIC, TCP}
	sc := m.prep(Scenario{RateMbps: 100, LossPct: 1, Device: device.Desktop})
	qoes := make([][][]video.QoE, len(qualities)) // [quality][proto][run]
	for qi, q := range qualities {
		qoes[qi] = make([][]video.QoE, len(protos))
		sci := m.NextScenario()
		for pi, proto := range protos {
			qoes[qi][pi] = make([]video.QoE, runs)
			for r := 0; r < runs; r++ {
				addCell(m, Cell{Scenario: sci, Round: r, Proto: proto, Arm: pi}, &qoes[qi][pi][r], nil,
					func(seed int64, tp *tbPool) (video.QoE, *Result) {
						qoe, res := sc.runVideo(q, proto, seed, tp)
						return qoe, &res
					})
			}
		}
	}
	m.Run()
	fmt.Fprintf(w, "%-8s %-6s %-10s %-12s %-14s %-10s %s\n",
		"quality", "proto", "start(s)", "loaded(%)", "buffer/play(%)", "rebuffers", "rebuf/playsec")
	for qi, q := range qualities {
		for pi, proto := range protos {
			var starts, loaded, ratio, rebufs, perSec []float64
			for _, qoe := range qoes[qi][pi] {
				starts = append(starts, qoe.TimeToStart.Seconds())
				loaded = append(loaded, qoe.FractionLoaded)
				ratio = append(ratio, qoe.BufferPlayPct)
				rebufs = append(rebufs, float64(qoe.Rebuffers))
				perSec = append(perSec, qoe.RebuffersPerSec)
			}
			fmt.Fprintf(w, "%-8s %-6s %.1f (%.1f)  %.1f (%.1f)   %.1f (%.1f)    %.1f (%.1f)  %.3f\n",
				q.Name, proto, meanF(starts), stdF(starts), meanF(loaded), stdF(loaded),
				meanF(ratio), stdF(ratio), meanF(rebufs), stdF(rebufs), meanF(perSec))
		}
	}
}

// runVideo streams one video at quality q over proto for the player's
// observation window. The Result is completed if the player finished,
// deadline otherwise.
func (sc Scenario) runVideo(q video.Quality, proto Proto, seed int64, tp *tbPool) (video.QoE, Result) {
	tb := sc.acquire(proto, 1, seed, tp)
	res := tb.result()
	cfg := video.Config{Quality: q}
	var out video.QoE
	finished := func(q video.QoE) {
		out, res.Completed = q, true
		tb.sim.Stop()
	}
	if proto == QUIC {
		_, cli := sc.serveQUIC(tb, 0, cfg.SegmentBytes(), sc.CCAlgo)
		video.StreamQUIC(cli, serverAddr, cfg, finished)
	} else {
		_, cli := sc.serveTCP(tb, 0, cfg.SegmentBytes(), sc.CCAlgo)
		video.StreamTCP(cli, serverAddr, cfg, finished)
	}
	tb.run(sc, 3*time.Minute)
	tb.finish(&res)
	if !res.Completed {
		res.FailureReason = FailDeadline
	}
	return out, res
}

func runFig15(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig15", o)
	ss := sizes(o)
	if !o.Quick {
		ss = append(append([]int{}, ss...), 210<<20)
	} else {
		ss = append(append([]int{}, ss...), 10<<20) // MACW binds only on long transfers
	}
	cols := labels(ss, sizeLabel)
	macws := []int{430, 2000}
	renders := make([]func(io.Writer), len(macws))
	for mi, macw := range macws {
		renders[mi] = pltHeatmap(m, fmt.Sprintf("QUIC 37 with MACW=%d vs TCP", macw), o, cols,
			func(rate float64, j int) Scenario {
				return Scenario{
					Seed: o.Seed, RateMbps: rate, MACW: macw, Connections: 1, // QUIC 37: N=1
					ExtraDelay: 50 * time.Millisecond,
					Page:       web.Page{NumObjects: 1, ObjectSize: ss[j]}, Device: device.Desktop,
				}
			}, defaultCompare)
	}
	m.Run()
	fmt.Fprintln(w, "(+50ms path delay so the bandwidth-delay product exceeds MACW=430's 580KB ceiling,")
	fmt.Fprintln(w, " the regime where the paper's Chromium update from 430 to 2000 mattered)")
	renderAll(w, renders)
}

func runFig17(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig17", o)
	conditions := []variant{
		{"baseline", func(sc *Scenario) {}},
		{"1% loss", func(sc *Scenario) { sc.LossPct = 1 }},
		{"+100ms delay", func(sc *Scenario) { sc.ExtraDelay = 100 * time.Millisecond }},
	}
	ss := sizes(o)
	cols := labels(ss, sizeLabel)
	renders := make([]func(io.Writer), len(conditions))
	for ci, cond := range conditions {
		renders[ci] = pltHeatmap(m, fmt.Sprintf("QUIC (direct) vs proxied TCP, %s", cond.name), o, cols,
			func(rate float64, j int) Scenario {
				sc := Scenario{
					Seed: o.Seed, RateMbps: rate, Proxy: TCPProxy,
					Page: web.Page{NumObjects: 1, ObjectSize: ss[j]}, Device: device.Desktop,
				}
				cond.mod(&sc)
				return sc
			}, defaultCompare)
	}
	m.Run()
	renderAll(w, renders)
}

func runFig18(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("fig18", o)
	conditions := []variant{
		{"baseline", func(sc *Scenario) {}},
		{"1% loss", func(sc *Scenario) { sc.LossPct = 1 }},
	}
	ss := sizes(o)
	cols := labels(ss, sizeLabel)
	renders := make([]func(io.Writer), len(conditions))
	for ci, cond := range conditions {
		renders[ci] = pltHeatmap(m, fmt.Sprintf("QUIC direct vs QUIC proxied, %s (positive = direct faster)", cond.name), o, cols,
			func(rate float64, j int) Scenario {
				sc := Scenario{
					Seed: o.Seed, RateMbps: rate,
					Page: web.Page{NumObjects: 1, ObjectSize: ss[j]}, Device: device.Desktop,
				}
				cond.mod(&sc)
				return sc
			},
			func(m *Matrix, sc Scenario) *Comparison { return m.ProxyCompare(sc) })
	}
	m.Run()
	renderAll(w, renders)
}

func runAblations(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("ablations", o)
	base := Scenario{Seed: o.Seed, RateMbps: 50, Page: web.Page{NumObjects: 1, ObjectSize: 10 << 20}, Device: device.Desktop}
	type measured struct {
		name   string
		series *pltSeries
	}
	var meas []measured
	add := func(name string, sc Scenario) {
		meas = append(meas, measured{name, m.runRounds(QUIC, func(r int, _ int64) Scenario {
			return sc.perturbed(r)
		})})
	}
	add("baseline (HyStart+PRR+pacing, N=2, MACW 430)", base)
	noHy := base
	noHy.NoHyStart = true
	add("no HyStart", noHy)
	noPace := base
	noPace.NoPacing = true
	add("no pacing", noPace)
	bug := base
	bug.SSThreshBug = true
	add("ssthresh bug (Chromium 52)", bug)
	macw := base
	macw.MACW = 107
	add("MACW=107 (old default)", macw)

	small := Scenario{Seed: o.Seed, RateMbps: 100, Page: web.Page{NumObjects: 100, ObjectSize: 10 << 10}, Device: device.Desktop}
	add("100x10KB at 100Mbps (HyStart on)", small)
	smallNoHy := small
	smallNoHy.NoHyStart = true
	add("100x10KB at 100Mbps, no HyStart", smallNoHy)

	conns := []int{1, 2}
	fairRes := make([][]FairFlow, len(conns))
	for ni, n := range conns {
		sc := table4Path
		sc.Connections = n
		addFairness(m, Cell{Scenario: m.NextScenario()}, &fairRes[ni], nil, sc, ProtoArms(QUIC, TCP), 20*time.Second, allFlows)
	}

	reorder := Scenario{
		Seed: o.Seed, RateMbps: 20, RTT: 112 * time.Millisecond, Jitter: 10 * time.Millisecond,
		Page: web.Page{NumObjects: 1, ObjectSize: 4 << 20}, Device: device.Desktop,
	}
	dsack := make([]*pltSeries, 2)
	for di, disable := range []bool{false, true} {
		sc := reorder
		sc.DisableDSACK = disable
		dsack[di] = m.runRounds(TCP, func(r int, _ int64) Scenario { return sc.perturbed(r) })
	}

	m.Run()
	fmt.Fprintln(w, "QUIC design-choice ablations (10MB at 50Mbps unless noted):")
	for _, ms := range meas {
		fmt.Fprintf(w, "  %-44s %v\n", ms.name, ms.series.mean.Round(time.Millisecond))
	}
	fmt.Fprintln(w, "fairness vs N-connection emulation (5Mbps, 30KB buffer):")
	for ni, n := range conns {
		if res := fairRes[ni]; len(res) == 2 { // empty when the cell panicked
			fmt.Fprintf(w, "  N=%d: QUIC %.2f Mbps, TCP %.2f Mbps\n", n, res[0].Throughput, res[1].Throughput)
		}
	}
	fmt.Fprintln(w, "TCP DSACK adaptation under reordering (4MB, 20Mbps, 10ms jitter):")
	for di, disable := range []bool{false, true} {
		label := "DSACK adaptive"
		if disable {
			label = "DSACK disabled (fixed threshold)"
		}
		fmt.Fprintf(w, "  %-36s %v\n", label, dsack[di].mean.Round(time.Millisecond))
	}
}

// runObservability exercises the qlog-style event layer end to end: a
// small scenario matrix is run under both transports with TraceEvents
// enabled, and each run's server-side event log is rolled up into a
// trace.Summary row. This is the machine-checked substrate behind the
// paper-style root-cause tables (loss rate, spurious detections, RTT
// percentiles, time-in-state).
func runObservability(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("obs", o)
	type obsCell struct {
		name string
		sc   Scenario
	}
	cells := []obsCell{
		{"1MB@20Mbps clean", Scenario{
			Seed: o.Seed, RateMbps: 20,
			Page: web.Page{NumObjects: 1, ObjectSize: 1 << 20}, Device: device.Desktop,
		}},
		{"1MB@20Mbps 1% loss", Scenario{
			Seed: o.Seed, RateMbps: 20, LossPct: 1,
			Page: web.Page{NumObjects: 1, ObjectSize: 1 << 20}, Device: device.Desktop,
		}},
		{"10x100KB reordering", Scenario{
			Seed: o.Seed, RateMbps: 20,
			RTT: 112 * time.Millisecond, Jitter: 10 * time.Millisecond,
			Page: web.Page{NumObjects: 10, ObjectSize: 100 << 10}, Device: device.Desktop,
		}},
	}
	if !o.Quick {
		cells = append(cells, obsCell{"10MB@50Mbps MotoG", Scenario{
			Seed: o.Seed, RateMbps: 50,
			Page: web.Page{NumObjects: 1, ObjectSize: 10 << 20}, Device: device.MotoG,
		}})
	}
	protos := [...]Proto{QUIC, TCP}
	type summarised struct {
		PLT     time.Duration
		Summary trace.Summary
	}
	runs := make([][len(protos)]summarised, len(cells))
	for ci, cell := range cells {
		sc := cell.sc
		sc.TraceEvents = true
		sc = m.prep(sc)
		sci := m.NextScenario()
		for pi, proto := range protos {
			addCell(m, Cell{Scenario: sci, Proto: proto, Arm: pi}, &runs[ci][pi], nil,
				func(seed int64, tp *tbPool) (summarised, *Result) {
					res := sc.runPLT(proto, seed, tp)
					return summarised{res.PLT, res.ServerSummary()}, &res
				})
		}
	}
	m.Run()
	fmt.Fprintf(w, "%-22s %-5s %-9s %6s %6s %7s %5s %4s %4s %9s %9s  %s\n",
		"cell", "proto", "plt", "sent", "lost", "loss%", "spur", "tlp", "rto", "rtt_p50", "rtt_p95", "top state")
	agg := map[Proto]trace.Summary{}
	for ci, cell := range cells {
		for pi, proto := range protos {
			s := runs[ci][pi].Summary
			top, share := s.TopState()
			fmt.Fprintf(w, "%-22s %-5s %-9v %6d %6d %6.2f%% %5d %4d %4d %9v %9v  %s %.0f%%\n",
				cell.name, proto, runs[ci][pi].PLT.Round(time.Millisecond),
				s.PacketsSent, s.PacketsLost, s.LossRate*100,
				s.SpuriousLosses, s.TLPs, s.RTOs,
				s.RTTP50.Round(100*time.Microsecond), s.RTTP95.Round(100*time.Microsecond),
				top, share*100)
			a := agg[proto]
			a.PacketsSent += s.PacketsSent
			a.PacketsLost += s.PacketsLost
			a.SpuriousLosses += s.SpuriousLosses
			a.TLPs += s.TLPs
			a.RTOs += s.RTOs
			a.BytesSent += s.BytesSent
			agg[proto] = a
		}
	}
	fmt.Fprintln(w, "\naggregate over the matrix (server side):")
	for _, proto := range protos {
		a := agg[proto]
		lossRate := 0.0
		if a.PacketsSent > 0 {
			lossRate = float64(a.PacketsLost) / float64(a.PacketsSent) * 100
		}
		fmt.Fprintf(w, "  %-5s sent=%d lost=%d (%.2f%%) spurious=%d tlp=%d rto=%d bytes=%d\n",
			proto, a.PacketsSent, a.PacketsLost, lossRate, a.SpuriousLosses, a.TLPs, a.RTOs, a.BytesSent)
	}
}

// runOutage demonstrates the fault-injection layer end to end on a
// cellular-like profile (4Mbps, 61ms RTT — Verizon LTE, Table 5): a
// mid-transfer outage emulating a handoff delays but does not kill
// either transport, heavier faults degrade gracefully, and a permanent
// outage produces a classified failure instead of a hang.
func runOutage(w io.Writer, o Options) {
	o = o.withDefaults()
	m := NewMatrix("outage", o)
	base := Scenario{
		Seed: o.Seed, RateMbps: 4, RTT: 61 * time.Millisecond,
		Page:   web.Page{NumObjects: 2, ObjectSize: 400 << 10},
		Device: device.Desktop,
	}
	outage := func(d time.Duration) *netem.Schedule {
		return &netem.Schedule{Faults: []netem.Fault{
			{At: 500 * time.Millisecond, Kind: netem.FaultOutage, Duration: d},
		}}
	}
	rows := []struct {
		name   string
		faults *netem.Schedule
	}{
		{"no fault", nil},
		{"2s outage @0.5s", outage(2 * time.Second)},
		{"5s outage @0.5s", outage(5 * time.Second)},
		{"burst loss 3s", &netem.Schedule{Faults: []netem.Fault{
			{At: 500 * time.Millisecond, Kind: netem.FaultBurstLoss,
				GE:       &netem.GilbertElliott{PGB: 0.02, PBG: 0.25, LossBad: 0.8},
				Duration: 3 * time.Second},
		}}},
		{"permanent outage @0.5s", outage(0)},
	}
	protos := [...]Proto{QUIC, TCP}
	type faulted struct {
		PLT        time.Duration
		Completed  bool
		Failure    FailureReason
		Injections int
	}
	results := make([][len(protos)]faulted, len(rows))
	for ri, row := range rows {
		sc := base
		sc.Faults = row.faults
		sc = m.prep(sc)
		sci := m.NextScenario()
		for pi, proto := range protos {
			addCell(m, Cell{Scenario: sci, Proto: proto, Arm: pi}, &results[ri][pi], nil,
				func(seed int64, tp *tbPool) (faulted, *Result) {
					res := sc.runPLT(proto, seed, tp)
					return faulted{res.PLT, res.Completed, res.FailureReason, res.ServerTrace.Counter("fault_injected")}, &res
				})
		}
	}
	m.Run()
	fmt.Fprintf(w, "%-22s %-5s %-10s %-9s %-18s %s\n",
		"fault", "proto", "plt", "completed", "failure", "injections")
	for ri, row := range rows {
		for pi, proto := range protos {
			res := results[ri][pi]
			failure := "-"
			if !res.Completed {
				failure = res.Failure.String()
			}
			fmt.Fprintf(w, "%-22s %-5s %-10v %-9v %-18s %d\n",
				row.name, proto, res.PLT.Round(time.Millisecond), res.Completed,
				failure, res.Injections)
		}
	}
	fmt.Fprintln(w, "\nincomplete runs are classified (idle_timeout, rto_exhausted,")
	fmt.Fprintln(w, "handshake_failure, deadline) rather than hung; PLT for them is")
	fmt.Fprintln(w, "clamped to the scenario deadline.")
}

// --- small stat helpers -----------------------------------------------------

func meanF(xs []float64) float64 { return stats.Mean(xs) }

func stdF(xs []float64) float64 { return stats.StdDev(xs) }

func durationMean(xs []float64) time.Duration {
	return time.Duration(stats.Mean(xs) * float64(time.Second))
}
