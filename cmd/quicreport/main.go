// Command quicreport renders report-bundle trees written by the matrix
// engine (quicsim -bundle, or any experiment run with
// core.Options.BundleDir) into a browsable report: per-cell headline
// numbers, ASCII sparklines for every sampled time-series, the rolled-up
// event summary, and a paper-style significance table comparing the two
// arms of each scenario with Welch's t-test at p < 0.01.
//
// The positional argument is either a bundle tree root or a single
// cell's directory (one containing summary.json).
//
// With -anomalies, quicreport instead reads a run ledger (quicbench
// -ledger / quicsim -ledger) and prints the cells the anomaly detectors
// flagged, ranked worst-first by severity.
//
// With -timing, quicreport reads a run ledger's host-clock records and
// prints where the wall time went: each sweep block's share of the total
// and its worker utilization, the largest (experiment, scenario) groups,
// and the slowest cells with host-ms per simulated PLT-second.
//
// With -checkpoints, quicreport inspects a checkpoint directory
// (quicbench -checkpoint): per experiment it prints the resume key,
// shard provenance, and completed-cell count against the sweep's total —
// what a resume of that directory would restore.
//
// With -tournament, quicreport re-renders CC-tournament brackets (Jain
// heatmap plus per-pairing lines) from a cctournament checkpoint — the
// cells' payloads are self-describing, so no re-simulation is needed.
//
// With -budget, quicreport renders the stall-attribution view of a
// bundle tree: per connection, a stacked text bar decomposing the
// virtual lifetime into the internal/profile states (handshake,
// transfer, cwnd-limited, ...), plus an A/B table Welch-testing each
// component's per-round totals between the two arms of every scenario —
// "QUIC is slower here because it spent 80 ms more in recovery", with
// significance stars.
//
// Examples:
//
//	quicsim -rate 20 -loss 1 -rounds 10 -bundle out/
//	quicreport out/
//	quicreport -html report.html out/
//	quicreport out/cli/s0/r0-0-QUIC
//	quicreport -budget out/
//	quicreport -anomalies runs.jsonl
//	quicreport -timing runs.jsonl
//	quicreport -checkpoints ckpt/
//	quicreport -tournament ckpt/
package main

import (
	"cmp"
	"flag"
	"fmt"
	"html"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"quiclab/internal/core"
	"quiclab/internal/metrics"
	"quiclab/internal/obs"
	"quiclab/internal/profile"
	"quiclab/internal/stats"
)

// sparkLevels are the eight block glyphs a sparkline is drawn with.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

func main() {
	var (
		htmlPath  = flag.String("html", "", "write an HTML report here instead of text to stdout")
		width     = flag.Int("width", 60, "sparkline width (characters)")
		alpha     = flag.Float64("alpha", 0.01, "significance level for the comparison table")
		anomalies = flag.String("anomalies", "", "read this run ledger (JSONL) and print flagged cells ranked by severity")
		timing    = flag.String("timing", "", "read this run ledger (JSONL) and print where the sweeps' wall time went: per sweep, per scenario, slowest cells")
		ckptsDir  = flag.String("checkpoints", "", "inspect this checkpoint directory (quicbench -checkpoint): resumable cells per experiment")
		tourney   = flag.String("tournament", "", "re-render the CC tournament bracket from this checkpoint dir or .ckpt file (quicbench -exp cctournament -checkpoint)")
		budget    = flag.Bool("budget", false, "render the stall-attribution view of the bundle tree: per-connection budget bars plus a per-component A/B table")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: quicreport [flags] <bundle-dir>\n       quicreport -budget <bundle-dir>\n       quicreport -anomalies <ledger.jsonl>\n       quicreport -timing <ledger.jsonl>\n       quicreport -checkpoints <ckpt-dir>\n       quicreport -tournament <ckpt-dir>\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	// At most one view: a ledger (anomalies or timing), a checkpoint dir,
	// a tournament checkpoint, or a bundle tree (what -html and -budget
	// render).
	type view struct {
		flag, arg string
		write     func(io.Writer, string) error
	}
	var picked []view
	for _, v := range []view{
		{"-anomalies", *anomalies, writeAnomalies},
		{"-timing", *timing, writeTiming},
		{"-checkpoints", *ckptsDir, writeCheckpoints},
		{"-tournament", *tourney, writeTournament},
	} {
		if v.arg != "" {
			picked = append(picked, v)
		}
	}
	switch {
	case *budget:
		picked = append(picked, view{flag: "-budget"})
	case *htmlPath != "":
		picked = append(picked, view{flag: "-html"})
	case flag.NArg() > 0:
		picked = append(picked, view{flag: "a bundle dir"})
	}
	if len(picked) > 1 {
		fmt.Fprintf(os.Stderr, "quicreport: %s and %s are different views; pick one\n", picked[0].flag, picked[1].flag)
		flag.Usage()
		os.Exit(2)
	}
	if len(picked) == 1 && picked[0].write != nil {
		if err := picked[0].write(os.Stdout, picked[0].arg); err != nil {
			fmt.Fprintln(os.Stderr, "quicreport:", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *width < 8 {
		fmt.Fprintf(os.Stderr, "quicreport: invalid -width %d (want >= 8)\n", *width)
		os.Exit(2)
	}
	if *alpha <= 0 || *alpha >= 1 {
		fmt.Fprintf(os.Stderr, "quicreport: invalid -alpha %g (want 0 < alpha < 1)\n", *alpha)
		os.Exit(2)
	}

	cells, err := loadBundles(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "quicreport:", err)
		os.Exit(1)
	}
	if len(cells) == 0 {
		fmt.Fprintf(os.Stderr, "quicreport: no bundles (summary.json) found under %s\n", flag.Arg(0))
		os.Exit(1)
	}

	rep := report{cells: cells, width: *width, alpha: *alpha}
	if *budget {
		if *htmlPath != "" {
			fmt.Fprintln(os.Stderr, "quicreport: -budget is a text view; drop -html")
			os.Exit(2)
		}
		if err := rep.writeBudgetText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "quicreport:", err)
			os.Exit(1)
		}
		return
	}
	if *htmlPath != "" {
		f, err := os.Create(*htmlPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quicreport:", err)
			os.Exit(1)
		}
		err = rep.writeHTML(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "quicreport:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d cells)\n", *htmlPath, len(cells))
		return
	}
	if err := rep.writeText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quicreport:", err)
		os.Exit(1)
	}
}

// writeAnomalies reads a run ledger and prints the anomaly view: every
// flagged cell, ranked worst-first by its most severe finding, with the
// detector details and (when the sweep wrote bundles) the cell's bundle
// path for drill-down.
func writeAnomalies(w io.Writer, path string) error {
	entries, err := obs.ReadLedgerFile(path)
	if err != nil {
		return err
	}
	var (
		sweeps, cells int
		flagged       []*obs.CellRecord
	)
	for _, e := range entries {
		switch {
		case e.Manifest != nil:
			sweeps++
		case e.Cell != nil:
			cells++
			if len(e.Cell.Anomalies) > 0 {
				flagged = append(flagged, e.Cell)
			}
		}
	}
	if cells == 0 {
		return fmt.Errorf("%s: no cell records (not a run ledger?)", path)
	}
	fmt.Fprintf(w, "scanned %d cells across %d sweeps: %d flagged\n", cells, sweeps, len(flagged))
	if len(flagged) == 0 {
		return nil
	}
	// Worst first; ties break on cell identity so the view is
	// deterministic for a given ledger.
	sort.SliceStable(flagged, func(i, j int) bool {
		si, sj := obs.MaxSeverity(flagged[i].Anomalies), obs.MaxSeverity(flagged[j].Anomalies)
		if si != sj {
			return si > sj
		}
		a, b := flagged[i], flagged[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		return a.Compare(b.CellID) < 0
	})
	for i, c := range flagged {
		fmt.Fprintf(w, "\n%2d. sev=%.2f  %s s%d r%d %s#%d  seed=%d  %s  plt=%.3fs\n",
			i+1, obs.MaxSeverity(c.Anomalies),
			c.Experiment, c.Scenario, c.Round, c.Proto, c.Arm,
			c.Seed, c.Outcome, c.PLTSeconds)
		for _, f := range c.Anomalies {
			fmt.Fprintf(w, "      %-16s sev=%.2f", f.Rule, f.Severity)
			if f.Series != "" {
				fmt.Fprintf(w, "  [%s]", f.Series)
			}
			fmt.Fprintf(w, "  %s\n", f.Detail)
		}
		if c.Bundle != "" {
			fmt.Fprintf(w, "      bundle: %s\n", c.Bundle)
		}
	}
	return nil
}

// timingTop is how many scenario groups and cells the timing view ranks.
const timingTop = 10

// timedCell is one cell that ran (was not resumed): its timing record
// joined to its block's cell record.
type timedCell struct {
	obs.CellID
	experiment, outcome string
	wallMS, pltSeconds  float64
}

// writeTiming reads a run ledger and prints where the host wall time
// went, from the host-clock records alone: every sweep block (in ledger
// order) with its share of the summed sweep wall and its utilization
// cell_wall / (wall × workers); the largest (experiment, scenario)
// groups by summed cell wall; and the slowest cells, with host-ms per
// simulated PLT-second where the cell record carries a PLT. Resumed
// cells took no wall time in their run, so they are counted, not ranked.
func writeTiming(w io.Writer, path string) error {
	entries, err := obs.ReadLedgerFile(path)
	if err != nil {
		return err
	}
	var (
		sweeps     []*obs.SweepStats
		cells      []timedCell
		experiment string                             // the current block's
		records    = map[obs.CellID]*obs.CellRecord{} // the current block's
		resumed    int
	)
	for _, e := range entries {
		switch {
		case e.Manifest != nil:
			experiment, records = e.Manifest.Experiment, map[obs.CellID]*obs.CellRecord{}
		case e.Cell != nil:
			records[e.Cell.CellID] = e.Cell
		case e.Timing != nil:
			if e.Timing.Resumed {
				resumed++
				continue
			}
			c := timedCell{CellID: e.Timing.CellID, experiment: experiment, wallMS: e.Timing.WallMS}
			if rec := records[c.CellID]; rec != nil {
				c.outcome, c.pltSeconds = rec.Outcome, rec.PLTSeconds
			}
			cells = append(cells, c)
		case e.Stats != nil:
			sweeps = append(sweeps, e.Stats)
		}
	}
	if len(cells)+resumed == 0 {
		return fmt.Errorf("%s: no timing records (not a run ledger?)", path)
	}
	var sweepWall, cellWall float64
	for _, s := range sweeps {
		sweepWall += s.WallMS
	}
	for _, c := range cells {
		cellWall += c.wallMS
	}
	fmt.Fprintf(w, "%d sweeps, %.1f ms sweep wall; %d cells ran, %.1f ms summed cell wall; %d resumed (not ranked)\n",
		len(sweeps), sweepWall, len(cells), cellWall, resumed)

	fmt.Fprintf(w, "\nsweeps, in ledger order:\n%-14s %7s %10s %6s %5s\n", "experiment", "workers", "wall ms", "share", "util")
	for _, s := range sweeps {
		fmt.Fprintf(w, "%-14s %7d %10.1f %5.1f%% %5.2f", s.Experiment, s.Workers, s.WallMS,
			100*ratio(s.WallMS, sweepWall), ratio(s.CellWallMS, s.WallMS*float64(s.Workers)))
		for _, n := range []struct {
			name  string
			count int
		}{{"resumed", s.SkippedCells}, {"panics", s.CellPanics}, {"timeouts", s.CellTimeouts}} {
			if n.count > 0 {
				fmt.Fprintf(w, "  %s=%d", n.name, n.count)
			}
		}
		fmt.Fprintln(w)
	}

	// Ties keep ledger order, so the view is deterministic for a ledger.
	type group struct {
		experiment string
		scenario   int
	}
	var groups []group // first-seen order
	groupWall := map[group]float64{}
	for _, c := range cells {
		g := group{c.experiment, c.Scenario}
		if _, ok := groupWall[g]; !ok {
			groups = append(groups, g)
		}
		groupWall[g] += c.wallMS
	}
	slices.SortStableFunc(groups, func(a, b group) int { return cmp.Compare(groupWall[b], groupWall[a]) })
	fmt.Fprintf(w, "\nlargest scenarios by summed cell wall:\n%-14s %8s %10s %6s\n", "experiment", "scenario", "cell ms", "share")
	for _, g := range groups[:min(timingTop, len(groups))] {
		fmt.Fprintf(w, "%-14s %8d %10.1f %5.1f%%\n", g.experiment, g.scenario, groupWall[g], 100*ratio(groupWall[g], cellWall))
	}

	slices.SortStableFunc(cells, func(a, b timedCell) int { return cmp.Compare(b.wallMS, a.wallMS) })
	fmt.Fprintf(w, "\nslowest cells:\n%-14s %-14s %10s %-14s %8s %9s\n", "experiment", "cell", "wall ms", "outcome", "plt s", "ms/sim-s")
	for _, c := range cells[:min(timingTop, len(cells))] {
		plt, perSim := "", ""
		if c.pltSeconds > 0 {
			plt, perSim = fmt.Sprintf("%.3f", c.pltSeconds), fmt.Sprintf("%.1f", c.wallMS/c.pltSeconds)
		}
		line := fmt.Sprintf("%-14s %-14s %10.1f %-14s %8s %9s", c.experiment,
			fmt.Sprintf("s%d/r%d/%s#%d", c.Scenario, c.Round, c.Proto, c.Arm), c.wallMS, c.outcome, plt, perSim)
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	return nil
}

// ratio is a/b, or 0 when b is not positive (an empty or instant sweep).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// writeCheckpoints renders the checkpoint view: one block per
// experiment checkpoint in dir (sorted by filename) with the sweep
// identity, shard provenance, and how many of the sweep's cells are
// restorable.
func writeCheckpoints(w io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+obs.CheckpointExt))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no %s files found under %s", obs.CheckpointExt, dir)
	}
	sort.Strings(paths)
	for i, path := range paths {
		if i > 0 {
			fmt.Fprintln(w)
		}
		hdr, cells, _, err := obs.ReadCheckpointFile(path)
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if hdr == nil {
			fmt.Fprintf(w, "== %s: no checkpoint header (empty or damaged file)\n", filepath.Base(path))
			continue
		}
		fmt.Fprintf(w, "== %s ==\n", filepath.Base(path))
		fmt.Fprintf(w, "experiment %s  seed=%d rounds=%d quick=%v  scenarios=%d\n",
			hdr.Experiment, hdr.BaseSeed, hdr.Rounds, hdr.Quick, hdr.Scenarios)
		fmt.Fprintf(w, "resume key %s  (%s, schema %d)\n", hdr.Key(), hdr.GoVersion, hdr.Schema)
		if hdr.Shard != "" {
			fmt.Fprintf(w, "shard      %s of the cell space\n", hdr.Shard)
		}
		// A file may hold a cell twice; a resume restores the first.
		fmt.Fprintf(w, "cells      %d/%d restorable\n", len(obs.FirstPerCell(cells)), hdr.Cells)
	}
	return nil
}

// writeTournament rebuilds CC-tournament brackets from checkpointed
// cells alone: every tournament cell's payload is self-describing
// (condition, algorithm pair, per-arm throughput), so a finished — or
// partially finished — sweep re-renders without re-running anything.
func writeTournament(w io.Writer, path string) error {
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		path = filepath.Join(path, "cctournament"+obs.CheckpointExt)
	}
	hdr, cells, _, err := obs.ReadCheckpointFile(path)
	if err != nil {
		return err
	}
	if hdr == nil {
		return fmt.Errorf("%s: no checkpoint header (empty or damaged file)", path)
	}
	if hdr.Experiment != "cctournament" {
		return fmt.Errorf("%s: checkpoint is for experiment %q, want cctournament", path, hdr.Experiment)
	}
	// A checkpoint file may hold the same cell twice (e.g. a cell re-run
	// after a failed restore, appended behind its original). The engine's
	// resume keeps the first occurrence per identity; match it here.
	// Checkpoint order is completion order (worker-dependent); cell
	// identity is not. Re-sorting by it restores the bracket's
	// registration order, so the rendering is deterministic.
	cells = obs.FirstPerCell(cells)
	slices.SortFunc(cells, func(a, b obs.CheckpointCell) int { return a.Compare(b.CellID) })
	type pairKey struct{ a, b string }
	var (
		condOrder []string
		pairs     = map[string]map[pairKey]*core.TournamentPair{}
		algos     = map[string]map[string]bool{}
		undecoded int
	)
	for _, c := range cells {
		p, err := core.DecodeTournamentPayload(c.Payload)
		if err != nil {
			undecoded++
			continue
		}
		if pairs[p.Cond] == nil {
			condOrder = append(condOrder, p.Cond)
			pairs[p.Cond] = map[pairKey]*core.TournamentPair{}
			algos[p.Cond] = map[string]bool{}
		}
		k := pairKey{p.Algos[0], p.Algos[1]}
		tp := pairs[p.Cond][k]
		if tp == nil {
			tp = &core.TournamentPair{A: k.a, B: k.b}
			pairs[p.Cond][k] = tp
		}
		tp.TputA = append(tp.TputA, p.Tput[0])
		tp.TputB = append(tp.TputB, p.Tput[1])
		algos[p.Cond][k.a] = true
		algos[p.Cond][k.b] = true
	}
	if len(condOrder) == 0 {
		return fmt.Errorf("%s: no decodable tournament cells", path)
	}
	fmt.Fprintf(w, "cctournament checkpoint: seed=%d rounds=%d quick=%v  %d/%d cells\n",
		hdr.BaseSeed, hdr.Rounds, hdr.Quick, len(cells), hdr.Cells)
	if undecoded > 0 {
		fmt.Fprintf(w, "WARNING: %d cell(s) had undecodable payloads and were skipped\n", undecoded)
	}
	if len(cells) < hdr.Cells {
		fmt.Fprintf(w, "note: partial sweep — brackets aggregate only checkpointed rounds\n")
	}
	for _, cond := range condOrder {
		names := make([]string, 0, len(algos[cond]))
		for a := range algos[cond] {
			names = append(names, a)
		}
		sort.Strings(names)
		b := core.TournamentBracket{
			Condition: core.TournamentCondition{Name: cond},
			Algos:     names,
		}
		// i-major pair order matches the live experiment's rendering.
		for i, a1 := range names {
			for _, a2 := range names[i:] {
				if tp := pairs[cond][pairKey{a1, a2}]; tp != nil {
					b.Pairs = append(b.Pairs, tp)
				}
			}
		}
		fmt.Fprintln(w)
		core.RenderTournament(w, b)
	}
	return nil
}

// cellBundle is one loaded cell: its tree-relative path, summary, and
// time-series.
type cellBundle struct {
	rel    string
	sum    core.BundleSummary
	series []metrics.SeriesData
}

// cadence returns a series' effective cadence from the summary metadata
// (the CSV carries only points; cadence and downsample counts live in
// summary.json).
func (c cellBundle) cadence(name string) time.Duration {
	for _, m := range c.sum.Series {
		if m.Name == name {
			return time.Duration(m.CadenceNS)
		}
	}
	return 0
}

// loadBundles loads the cell at root (if root itself holds a
// summary.json) or every cell below it, in sorted path order.
func loadBundles(root string) ([]cellBundle, error) {
	info, err := os.Stat(root)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("%s: not a directory", root)
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && d.Name() == core.BundleSummaryFile {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	cells := make([]cellBundle, 0, len(dirs))
	for _, dir := range dirs {
		sum, err := core.ReadBundleSummary(dir)
		if err != nil {
			return nil, err
		}
		series, err := core.ReadBundleSeries(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			rel = filepath.Base(dir)
		}
		cells = append(cells, cellBundle{rel: rel, sum: sum, series: series})
	}
	return cells, nil
}

// report renders a set of loaded cells.
type report struct {
	cells []cellBundle
	width int
	alpha float64
}

func (r report) writeText(w io.Writer) error {
	for i, c := range r.cells {
		if i > 0 {
			fmt.Fprintln(w)
		}
		r.writeCellText(w, c)
	}
	if rows := r.comparisonRows(); len(rows) > 0 {
		fmt.Fprintln(w)
		writeComparisonText(w, rows, r.alpha)
	}
	return nil
}

func (r report) writeCellText(w io.Writer, c cellBundle) {
	fmt.Fprintf(w, "== %s (seed %d) ==\n", c.rel, c.sum.Seed)
	status := "completed"
	if !c.sum.Completed {
		status = "FAILED"
		if c.sum.FailureReason != "" {
			status += " (" + c.sum.FailureReason + ")"
		}
	}
	fmt.Fprintf(w, "PLT %.3fs  %s  packets sent=%d lost=%d spurious=%d  bytes=%d\n",
		c.sum.PLTSeconds, status,
		c.sum.Trace.PacketsSent, c.sum.Trace.PacketsLost,
		c.sum.Trace.SpuriousLosses, c.sum.Trace.BytesSent)
	nameW := 0
	for _, s := range c.series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for _, s := range c.series {
		lo, hi := seriesRange(s.Points)
		fmt.Fprintf(w, "%-*s %s  [%s .. %s] n=%d cadence=%v\n",
			nameW, s.Name,
			sparkline(s.Points, time.Duration(c.sum.EndTimeNS), r.width),
			formatValue(s.Kind, lo), formatValue(s.Kind, hi),
			len(s.Points), c.cadence(s.Name))
	}
}

// comparisonRow is one line of the significance table: the two arms of
// one scenario, compared over rounds.
type comparisonRow struct {
	group   string // experiment/sN
	armA    string // e.g. QUIC or QUIC#0
	armB    string
	rounds  int
	meanA   float64 // seconds
	meanB   float64
	pctDiff float64 // positive = armA faster
	p       float64
	pOK     bool
	sig     bool
	verdict string
}

// comparisonRows groups cells by experiment/scenario and compares the
// two arms present (QUIC vs TCP, or arm 0 vs arm 1 for same-protocol
// pairs), Welch-testing per-round PLTs — the paper's §3.3 procedure
// applied to whatever the bundle tree holds.
func (r report) comparisonRows() []comparisonRow {
	type armKey struct {
		proto string
		arm   int
	}
	groups := map[string]map[armKey][]float64{}
	var order []string
	for _, c := range r.cells {
		g := fmt.Sprintf("%s/s%d", c.sum.Experiment, c.sum.Scenario)
		if groups[g] == nil {
			groups[g] = map[armKey][]float64{}
			order = append(order, g)
		}
		k := armKey{c.sum.Proto, c.sum.Arm}
		groups[g][k] = append(groups[g][k], c.sum.PLTSeconds)
	}
	var rows []comparisonRow
	for _, g := range order {
		arms := groups[g]
		if len(arms) != 2 {
			continue
		}
		keys := make([]armKey, 0, 2)
		for k := range arms {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].arm != keys[j].arm {
				return keys[i].arm < keys[j].arm
			}
			// QUIC leads, matching the paper's "positive = QUIC faster".
			return keys[i].proto > keys[j].proto
		})
		a, b := arms[keys[0]], arms[keys[1]]
		row := comparisonRow{
			group:  g,
			armA:   armLabel(keys[0].proto, keys[0].arm, keys[1].proto),
			armB:   armLabel(keys[1].proto, keys[1].arm, keys[0].proto),
			rounds: min(len(a), len(b)),
			meanA:  stats.Mean(a),
			meanB:  stats.Mean(b),
		}
		row.pctDiff = stats.PercentDiff(row.meanB, row.meanA)
		if res, err := stats.Welch(a, b); err == nil {
			row.p = res.P
			row.pOK = true
			row.sig = res.P < r.alpha
		}
		switch {
		case !row.pOK:
			row.verdict = "n/a"
		case row.sig:
			row.verdict = "significant"
		default:
			row.verdict = "not significant"
		}
		rows = append(rows, row)
	}
	return rows
}

func armLabel(proto string, arm int, otherProto string) string {
	if proto == otherProto {
		return fmt.Sprintf("%s#%d", proto, arm)
	}
	return proto
}

func writeComparisonText(w io.Writer, rows []comparisonRow, alpha float64) {
	fmt.Fprintf(w, "comparison (Welch's t-test, alpha=%g, positive diff = first arm faster):\n", alpha)
	fmt.Fprintf(w, "%-16s %-8s %-8s %6s %10s %10s %8s %10s  %s\n",
		"scenario", "arm A", "arm B", "rounds", "A mean", "B mean", "diff%", "p", "verdict")
	for _, r := range rows {
		p := "-"
		if r.pOK {
			p = fmt.Sprintf("%.6f", r.p)
		}
		fmt.Fprintf(w, "%-16s %-8s %-8s %6d %9.3fs %9.3fs %+7.1f%% %10s  %s\n",
			r.group, r.armA, r.armB, r.rounds, r.meanA, r.meanB, r.pctDiff, p, r.verdict)
	}
}

// budgetGlyphs maps each profile state (by index) to its bar glyph.
// Transfer is drawn as '=' and app-limited as '.' so the "good" time
// reads visually distinct from the named stall states.
var budgetGlyphs = []byte{'H', '=', 'C', 'P', 'F', 'f', 'R', 'O', '.'}

// writeBudgetText renders the stall-attribution view: per cell, one
// stacked bar per server connection decomposing its lifetime into the
// internal/profile states, followed by an A/B table Welch-testing each
// component's per-round totals between the two arms of every scenario.
func (r report) writeBudgetText(w io.Writer) error {
	fmt.Fprint(w, "budget bar legend:")
	for i := 0; i < profile.NumStates; i++ {
		fmt.Fprintf(w, " %c=%s", budgetGlyphs[i], profile.StateByIndex(i))
	}
	fmt.Fprintln(w)

	withBudgets := 0
	for _, c := range r.cells {
		if len(c.sum.Budgets) == 0 {
			continue
		}
		withBudgets++
		fmt.Fprintf(w, "\n== %s (seed %d)  PLT %.3fs ==\n", c.rel, c.sum.Seed, c.sum.PLTSeconds)
		for i, b := range c.sum.Budgets {
			fmt.Fprintf(w, "conn %d  lifetime %s  transitions %d",
				i, time.Duration(b.LifetimeNS), b.Transitions)
			if b.LongestStallNS > 0 {
				fmt.Fprintf(w, "  longest stall %s %s @%s",
					b.LongestStallState,
					time.Duration(b.LongestStallNS),
					time.Duration(b.LongestStallAtNS))
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "  [%s]\n", budgetBar(b, r.width))
			for s := 0; s < profile.NumStates; s++ {
				v := b.Component(s)
				if v == 0 {
					continue
				}
				fmt.Fprintf(w, "  %c %-14s %6.1f%%  %s\n",
					budgetGlyphs[s], profile.StateByIndex(s),
					100*float64(v)/float64(b.LifetimeNS), time.Duration(v))
			}
		}
	}
	if withBudgets == 0 {
		return fmt.Errorf("no budgets in any bundle (runs predate profiling, or summary.json was written without it)")
	}
	if rows := r.budgetComparison(); len(rows) > 0 {
		fmt.Fprintln(w)
		writeBudgetComparison(w, rows, r.alpha)
	}
	return nil
}

// budgetBar draws one connection's lifetime as a width-column stacked
// bar, each state's span proportional to its share. Cumulative rounding
// keeps the total width exact.
func budgetBar(b profile.Budget, width int) string {
	if b.LifetimeNS <= 0 {
		return strings.Repeat("?", width)
	}
	out := make([]byte, 0, width)
	var cum int64
	for s := 0; s < profile.NumStates; s++ {
		cum += b.Component(s)
		end := int(float64(width) * float64(cum) / float64(b.LifetimeNS))
		if end > width {
			end = width
		}
		for len(out) < end {
			out = append(out, budgetGlyphs[s])
		}
	}
	for len(out) < width {
		out = append(out, ' ')
	}
	return string(out)
}

// budgetComparisonRow is one component's A/B line for one scenario: the
// per-round totals of that component in each arm, Welch-tested.
type budgetComparisonRow struct {
	group  string
	armA   string
	armB   string
	state  string
	rounds int
	meanA  float64 // seconds per round
	meanB  float64
	deltaS float64 // meanA - meanB, seconds
	p      float64
	pOK    bool
	stars  string
}

// budgetComparison groups cells like comparisonRows and, for every
// scenario with exactly two arms, compares each profile component's
// per-round total (summed over that cell's connections) between the
// arms. Components zero in both arms are dropped.
func (r report) budgetComparison() []budgetComparisonRow {
	type armKey struct {
		proto string
		arm   int
	}
	type armData map[armKey][][]float64 // per arm: [state][]per-round seconds
	groups := map[string]armData{}
	var order []string
	for _, c := range r.cells {
		if len(c.sum.Budgets) == 0 {
			continue
		}
		g := fmt.Sprintf("%s/s%d", c.sum.Experiment, c.sum.Scenario)
		if groups[g] == nil {
			groups[g] = armData{}
			order = append(order, g)
		}
		k := armKey{c.sum.Proto, c.sum.Arm}
		if groups[g][k] == nil {
			groups[g][k] = make([][]float64, profile.NumStates)
		}
		for s := 0; s < profile.NumStates; s++ {
			var total int64
			for _, b := range c.sum.Budgets {
				total += b.Component(s)
			}
			groups[g][k][s] = append(groups[g][k][s], float64(total)/1e9)
		}
	}
	var rows []budgetComparisonRow
	for _, g := range order {
		arms := groups[g]
		if len(arms) != 2 {
			continue
		}
		keys := make([]armKey, 0, 2)
		for k := range arms {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].arm != keys[j].arm {
				return keys[i].arm < keys[j].arm
			}
			return keys[i].proto > keys[j].proto // QUIC leads
		})
		a, b := arms[keys[0]], arms[keys[1]]
		for s := 0; s < profile.NumStates; s++ {
			if allZero(a[s]) && allZero(b[s]) {
				continue
			}
			row := budgetComparisonRow{
				group:  g,
				armA:   armLabel(keys[0].proto, keys[0].arm, keys[1].proto),
				armB:   armLabel(keys[1].proto, keys[1].arm, keys[0].proto),
				state:  profile.StateByIndex(s).String(),
				rounds: min(len(a[s]), len(b[s])),
				meanA:  stats.Mean(a[s]),
				meanB:  stats.Mean(b[s]),
			}
			row.deltaS = row.meanA - row.meanB
			if res, err := stats.Welch(a[s], b[s]); err == nil {
				row.p = res.P
				row.pOK = true
				row.stars = welchStars(res.P)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func allZero(vs []float64) bool {
	for _, v := range vs {
		if v != 0 {
			return false
		}
	}
	return true
}

// welchStars is the usual significance ladder: * p<0.05, ** p<0.01,
// *** p<0.001.
func welchStars(p float64) string {
	switch {
	case p < 0.001:
		return "***"
	case p < 0.01:
		return "**"
	case p < 0.05:
		return "*"
	}
	return ""
}

func writeBudgetComparison(w io.Writer, rows []budgetComparisonRow, alpha float64) {
	fmt.Fprintf(w, "budget decomposition (Welch's t-test on per-round component totals; * p<0.05, ** p<0.01, *** p<0.001):\n")
	fmt.Fprintf(w, "%-16s %-8s %-8s %-14s %6s %10s %10s %10s %10s %s\n",
		"scenario", "arm A", "arm B", "component", "rounds", "A mean", "B mean", "delta", "p", "")
	prev := ""
	for _, r := range rows {
		group := r.group
		if group == prev {
			group = ""
		} else {
			prev = group
		}
		p := "-"
		if r.pOK {
			p = fmt.Sprintf("%.6f", r.p)
		}
		fmt.Fprintf(w, "%-16s %-8s %-8s %-14s %6d %9.3fs %9.3fs %+9.3fs %10s %s\n",
			group, r.armA, r.armB, r.state, r.rounds, r.meanA, r.meanB, r.deltaS, p, r.stars)
	}
}

func (r report) writeHTML(w io.Writer) error {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	b.WriteString("<title>quiclab report</title>\n<style>\n")
	b.WriteString("body{font-family:sans-serif;margin:2em;max-width:70em}\n")
	b.WriteString("pre,td.spark{font-family:monospace;white-space:pre}\n")
	b.WriteString("table{border-collapse:collapse}td,th{padding:2px 10px;text-align:left;border-bottom:1px solid #ddd}\n")
	b.WriteString("h2{border-bottom:2px solid #333}.fail{color:#b00}.sig{font-weight:bold}\n")
	b.WriteString("</style></head><body>\n<h1>quiclab report</h1>\n")
	for _, c := range r.cells {
		fmt.Fprintf(&b, "<h2>%s</h2>\n", html.EscapeString(c.rel))
		status := "completed"
		class := ""
		if !c.sum.Completed {
			status, class = "FAILED "+c.sum.FailureReason, " class=\"fail\""
		}
		fmt.Fprintf(&b, "<p>seed %d &middot; PLT %.3fs &middot; <span%s>%s</span> &middot; packets sent=%d lost=%d spurious=%d</p>\n",
			c.sum.Seed, c.sum.PLTSeconds, class, html.EscapeString(status),
			c.sum.Trace.PacketsSent, c.sum.Trace.PacketsLost, c.sum.Trace.SpuriousLosses)
		b.WriteString("<table><tr><th>series</th><th>timeline</th><th>min</th><th>max</th><th>points</th><th>cadence</th></tr>\n")
		for _, s := range c.series {
			lo, hi := seriesRange(s.Points)
			fmt.Fprintf(&b, "<tr><td>%s</td><td class=\"spark\">%s</td><td>%s</td><td>%s</td><td>%d</td><td>%v</td></tr>\n",
				html.EscapeString(s.Name),
				sparkline(s.Points, time.Duration(c.sum.EndTimeNS), r.width),
				formatValue(s.Kind, lo), formatValue(s.Kind, hi),
				len(s.Points), c.cadence(s.Name))
		}
		b.WriteString("</table>\n")
	}
	if rows := r.comparisonRows(); len(rows) > 0 {
		fmt.Fprintf(&b, "<h2>comparison</h2>\n<p>Welch's t-test, alpha=%g; positive diff = first arm faster.</p>\n", r.alpha)
		b.WriteString("<table><tr><th>scenario</th><th>arm A</th><th>arm B</th><th>rounds</th><th>A mean</th><th>B mean</th><th>diff</th><th>p</th><th>verdict</th></tr>\n")
		for _, row := range rows {
			p, class := "-", ""
			if row.pOK {
				p = fmt.Sprintf("%.6f", row.p)
			}
			if row.sig {
				class = " class=\"sig\""
			}
			fmt.Fprintf(&b, "<tr%s><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%.3fs</td><td>%.3fs</td><td>%+.1f%%</td><td>%s</td><td>%s</td></tr>\n",
				class, html.EscapeString(row.group), html.EscapeString(row.armA), html.EscapeString(row.armB),
				row.rounds, row.meanA, row.meanB, row.pctDiff, p, row.verdict)
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// sparkline buckets a series over [0, end] into width time slots and
// draws the last value of each slot as one of eight block glyphs,
// normalised to the series' own min..max. Empty slots repeat the
// previous value (a time-series holds its value between samples); slots
// before the first sample render as spaces.
func sparkline(pts []metrics.Point, end time.Duration, width int) string {
	if len(pts) == 0 {
		return strings.Repeat("·", width)
	}
	if end <= 0 || end < pts[len(pts)-1].T {
		end = pts[len(pts)-1].T
	}
	lo, hi := seriesRange(pts)
	span := hi - lo

	out := make([]rune, width)
	pi := 0
	have := false
	var cur float64
	for i := 0; i < width; i++ {
		// Slot i covers (i+1)/width of the run; consume samples up to its end.
		slotEnd := time.Duration(float64(end) * float64(i+1) / float64(width))
		for pi < len(pts) && pts[pi].T <= slotEnd {
			cur = pts[pi].V
			have = true
			pi++
		}
		if !have {
			out[i] = ' '
			continue
		}
		level := 0
		if span > 0 {
			level = int((cur - lo) / span * float64(len(sparkLevels)-1))
			if level < 0 {
				level = 0
			}
			if level >= len(sparkLevels) {
				level = len(sparkLevels) - 1
			}
		}
		out[i] = sparkLevels[level]
	}
	return string(out)
}

func seriesRange(pts []metrics.Point) (lo, hi float64) {
	for i, p := range pts {
		if i == 0 || p.V < lo {
			lo = p.V
		}
		if i == 0 || p.V > hi {
			hi = p.V
		}
	}
	return lo, hi
}

// formatValue renders a sample in kind-appropriate units.
func formatValue(kind metrics.Kind, v float64) string {
	switch kind {
	case metrics.KindDuration:
		return time.Duration(v).Round(10 * time.Microsecond).String()
	case metrics.KindBytes:
		switch {
		case v >= 1<<20:
			return fmt.Sprintf("%.1fMiB", v/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.1fKiB", v/(1<<10))
		}
		return fmt.Sprintf("%.0fB", v)
	case metrics.KindRate:
		switch {
		case v >= 1e6:
			return fmt.Sprintf("%.1fMbps", v*8/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%.1fKbps", v*8/1e3)
		}
		return fmt.Sprintf("%.0fbps", v*8)
	}
	return fmt.Sprintf("%g", v)
}
