// Command quicreport renders what a sweep left behind, one subcommand per
// view. Each view reads one input: a report-bundle tree (-bundle), a run
// ledger (-ledger), or a checkpoint directory or .ckpt file (-checkpoint).
//
//	quicsim -rate 20 -loss 1 -rounds 10 -bundle out/
//	quicreport report out/                  sparklines, Welch table of the two arms
//	quicreport report -html r.html out/     the same as one HTML page
//	quicreport report out/cli/s0/r0-0-QUIC  one cell
//	quicreport budget out/                  stall budgets, per-component Welch table
//	quicreport anomalies runs.jsonl         flagged cells, worst first
//	quicreport timing runs.jsonl            where the sweeps' wall time went
//	quicreport checkpoints ckpt/            resume key and restorable cells
//	quicreport render ckpt/                 each experiment's output, its cells
//	                                        restored from the checkpoint
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"html"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
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

// The inputs a view reads, as its usage line names them.
const (
	bundleTree = "<bundle-dir>"
	ledgerFile = "<ledger.jsonl>"
	checkpoint = "<ckpt-dir|file.ckpt>"
)

// renderer prints a view of the input its argument names.
type renderer func(w io.Writer, arg string) error

// view is one subcommand.
type view struct {
	name, reads, help string
	// setup registers the view's own flags and returns its renderer, which
	// runs once they are parsed.
	setup func(fs *flag.FlagSet) renderer
}

var views = []view{
	{"report", bundleTree, "per-cell sparklines and a Welch table of each scenario's two arms", reportView},
	{"budget", bundleTree, "per-connection stall budgets and a per-component Welch table", bundleView(report.writeBudgetText)},
	{"anomalies", ledgerFile, "flagged cells, worst first", noFlags(writeAnomalies)},
	{"timing", ledgerFile, "where the sweeps' wall time went", noFlags(writeTiming)},
	{"checkpoints", checkpoint, "resume key and restorable cells per checkpoint", noFlags(writeCheckpoints)},
	{"render", checkpoint, "re-render checkpointed experiments without simulating", noFlags(writeRender)},
}

// usageError is a flag value a view cannot use: it exits 2, as a flag
// that does not parse does.
type usageError struct{ error }

func main() {
	i := -1
	if len(os.Args) > 1 {
		i = slices.IndexFunc(views, func(v view) bool { return v.name == os.Args[1] })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "quicreport: unknown view %q\n", os.Args[1])
		}
	}
	if i < 0 {
		fmt.Fprintln(os.Stderr, "usage: quicreport <view> [flags] <input>\n\nviews:")
		for _, v := range views {
			fmt.Fprintf(os.Stderr, "  %-12s %-21s %s\n", v.name, v.reads, v.help)
		}
		fmt.Fprintln(os.Stderr, "\n'quicreport <view> -h' lists the view's flags")
		os.Exit(2)
	}
	v := views[i]
	fs := flag.NewFlagSet("quicreport "+v.name, flag.ExitOnError)
	render := v.setup(fs)
	fs.Usage = func() {
		flags := ""
		fs.VisitAll(func(*flag.Flag) { flags = " [flags]" })
		fmt.Fprintf(fs.Output(), "usage: quicreport %s%s %s\n\n%s\n", v.name, flags, v.reads, v.help)
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[2:])
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	if err := render(os.Stdout, fs.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "quicreport:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// noFlags is the setup of a view that has no flags of its own.
func noFlags(r renderer) func(*flag.FlagSet) renderer {
	return func(*flag.FlagSet) renderer { return r }
}

// bundleView is the setup of a view over a bundle tree: -width and
// -alpha, then the tree loaded into a report for draw.
func bundleView(draw func(report, io.Writer) error) func(*flag.FlagSet) renderer {
	return func(fs *flag.FlagSet) renderer {
		width := fs.Int("width", 60, "sparkline and budget-bar width (characters)")
		alpha := fs.Float64("alpha", 0.01, "significance level for the comparison table")
		return func(w io.Writer, root string) error {
			if *width < 8 {
				return usageError{fmt.Errorf("invalid -width %d (want >= 8)", *width)}
			}
			if *alpha <= 0 || *alpha >= 1 {
				return usageError{fmt.Errorf("invalid -alpha %g (want 0 < alpha < 1)", *alpha)}
			}
			cells, err := loadBundles(root)
			if err != nil {
				return err
			}
			if len(cells) == 0 {
				return fmt.Errorf("no bundles (summary.json) found under %s", root)
			}
			return draw(report{cells: cells, width: *width, alpha: *alpha}, w)
		}
	}
}

// reportView is the report view's setup: a bundle view whose -html flag
// sends the report to a file as HTML.
func reportView(fs *flag.FlagSet) renderer {
	htmlPath := fs.String("html", "", "write an HTML report to this file instead of text to stdout")
	return bundleView(func(r report, w io.Writer) error {
		if *htmlPath == "" {
			return r.writeText(w)
		}
		f, err := os.Create(*htmlPath)
		if err != nil {
			return err
		}
		err = r.writeHTML(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintf(w, "wrote %s (%d cells)\n", *htmlPath, len(r.cells))
		}
		return err
	})(fs)
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
	// Worst first; ties break on cell identity so the view is
	// deterministic for a given ledger.
	slices.SortStableFunc(flagged, func(a, b *obs.CellRecord) int {
		return cmp.Or(cmp.Compare(obs.MaxSeverity(b.Anomalies), obs.MaxSeverity(a.Anomalies)),
			strings.Compare(a.Experiment, b.Experiment), a.Compare(b.CellID))
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
		}{{"resumed", s.SkippedCells}, {"panics", s.CellPanics}} {
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

// checkpointFiles resolves a checkpoint input: the file itself, or every
// checkpoint file in the directory, sorted by name.
func checkpointFiles(path string) ([]string, error) {
	if info, err := os.Stat(path); err == nil && !info.IsDir() {
		return []string{path}, nil
	}
	paths, err := filepath.Glob(filepath.Join(path, "*"+obs.CheckpointExt))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no %s files found under %s", obs.CheckpointExt, path)
	}
	sort.Strings(paths)
	return paths, nil
}

// writeCheckpoints renders the checkpoint view: one block per
// checkpoint file with the sweep identity and how many of the sweep's
// cells are restorable.
func writeCheckpoints(w io.Writer, path string) error {
	paths, err := checkpointFiles(path)
	if err != nil {
		return err
	}
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
		fmt.Fprintf(w, "experiment %s  seed=%d rounds=%d quick=%v  scenarios=%d",
			hdr.Experiment, hdr.BaseSeed, hdr.Rounds, hdr.Quick, hdr.Scenarios)
		if hdr.CC != "" {
			fmt.Fprintf(w, "  cc=%s", hdr.CC)
		}
		fmt.Fprintf(w, "\nresume key %s  (%s, schema %d)\n", hdr.Key(), hdr.GoVersion, hdr.Schema)
		// A file may hold a cell twice; a resume restores the first.
		fmt.Fprintf(w, "cells      %d/%d restorable\n", len(obs.FirstPerCell(cells)), hdr.Cells)
	}
	return nil
}

// writeRender prints each checkpointed experiment as quicbench printed
// it (its "completed in" line aside), in registry order. It runs the
// experiment with the seed, rounds, quick and cc of the checkpoint's
// header and resumes from the checkpoint, so the engine restores every
// cell instead of simulating it. A checkpoint that cannot restore whole
// is refused before anything runs; a cell that still fails to restore
// (and so re-ran) makes the view fail after printing.
func writeRender(w io.Writer, path string) error {
	paths, err := checkpointFiles(path)
	if err != nil {
		return err
	}
	exps := core.Experiments()
	type job struct {
		exp  int // registry index
		hdr  *obs.CheckpointHeader
		path string
	}
	var jobs []job
	for _, path := range paths {
		hdr, cells, _, err := obs.ReadCheckpointFile(path)
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		exp := -1
		if hdr != nil {
			exp = slices.IndexFunc(exps, func(e core.Experiment) bool { return e.ID == hdr.Experiment })
		}
		switch distinct := len(obs.FirstPerCell(cells)); {
		case hdr == nil:
			err = fmt.Errorf("no checkpoint header (empty or damaged file)")
		case exp < 0:
			err = fmt.Errorf("experiment %q is not in the registry (quicbench -list)", hdr.Experiment)
		case hdr.SeedDerivation != core.SeedDerivation:
			err = fmt.Errorf("seeds derived by %q; this build derives %q", hdr.SeedDerivation, core.SeedDerivation)
		case hdr.GoVersion != runtime.Version():
			err = fmt.Errorf("written by %s; this build is %s", hdr.GoVersion, runtime.Version())
		case distinct < hdr.Cells:
			err = fmt.Errorf("%d/%d cells restorable; render needs a complete checkpoint", distinct, hdr.Cells)
		}
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		jobs = append(jobs, job{exp, hdr, path})
	}
	slices.SortStableFunc(jobs, func(a, b job) int { return cmp.Compare(a.exp, b.exp) })
	for _, j := range jobs {
		e := exps[j.exp]
		var st core.MatrixStats
		fmt.Fprintf(w, "== %s: %s\n   paper reported: %s\n", e.ID, e.Title, e.Paper)
		e.Run(w, core.Options{
			Seed: j.hdr.BaseSeed, Rounds: j.hdr.Rounds, Quick: j.hdr.Quick, CC: j.hdr.CC,
			ResumeFrom: j.path,
			Stats:      func(s core.MatrixStats) { st = s },
		})
		fmt.Fprintln(w)
		if st.SkippedCells < st.Cells {
			return fmt.Errorf("%s: restored %d of %d cells; the rest were simulated", j.path, st.SkippedCells, st.Cells)
		}
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
		nameW = max(nameW, len(s.Name))
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

// abRow is one Welch comparison of two arms' per-round samples: a
// scenario's PLTs, or the totals of one of its budget components.
type abRow struct {
	group      string // experiment/sN
	armA, armB string // e.g. QUIC or QUIC#0
	state      string // the budget component; empty for PLT
	rounds     int
	meanA      float64 // seconds
	meanB      float64
	p          float64
	pOK        bool // the test could run
}

// pText is the p column: "-" when the test could not run.
func (r abRow) pText() string {
	if !r.pOK {
		return "-"
	}
	return fmt.Sprintf("%.6f", r.p)
}

// verdict reads the test at significance level alpha.
func (r abRow) verdict(alpha float64) string {
	switch {
	case !r.pOK:
		return "n/a"
	case r.p < alpha:
		return "significant"
	}
	return "not significant"
}

// stars is the usual significance ladder: * p<0.05, ** p<0.01,
// *** p<0.001.
func (r abRow) stars() string {
	switch {
	case !r.pOK:
		return ""
	case r.p < 0.001:
		return "***"
	case r.p < 0.01:
		return "**"
	case r.p < 0.05:
		return "*"
	}
	return ""
}

// armPair is one scenario's two arms and what each accumulated over
// its rounds.
type armPair[T any] struct {
	group      string // experiment/sN
	armA, armB string // e.g. QUIC or QUIC#0
	a, b       T
}

// pairArms groups cells by experiment and scenario, folding each cell's
// summary into its arm, and returns the groups that have exactly two
// arms (QUIC vs TCP, or arm 0 vs arm 1 for same-protocol pairs) in
// first-seen order, arm 0 first and QUIC leading — the paper's
// "positive = QUIC faster".
func pairArms[T any](cells []cellBundle, fold func(T, core.BundleSummary) T) []armPair[T] {
	type armKey struct {
		proto string
		arm   int
	}
	groups := map[string]map[armKey]T{}
	var order []string
	for _, c := range cells {
		g := fmt.Sprintf("%s/s%d", c.sum.Experiment, c.sum.Scenario)
		if groups[g] == nil {
			groups[g] = map[armKey]T{}
			order = append(order, g)
		}
		k := armKey{c.sum.Proto, c.sum.Arm}
		groups[g][k] = fold(groups[g][k], c.sum)
	}
	var pairs []armPair[T]
	for _, g := range order {
		arms := groups[g]
		if len(arms) != 2 {
			continue
		}
		keys := make([]armKey, 0, 2)
		for k := range arms {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(x, y armKey) int {
			return cmp.Or(cmp.Compare(x.arm, y.arm), strings.Compare(y.proto, x.proto))
		})
		pairs = append(pairs, armPair[T]{
			group: g,
			armA:  armLabel(keys[0].proto, keys[0].arm, keys[1].proto),
			armB:  armLabel(keys[1].proto, keys[1].arm, keys[0].proto),
			a:     arms[keys[0]],
			b:     arms[keys[1]],
		})
	}
	return pairs
}

// welch compares one per-round sample of each arm of the pair.
func (p armPair[T]) welch(state string, a, b []float64) abRow {
	row := abRow{group: p.group, armA: p.armA, armB: p.armB, state: state,
		rounds: min(len(a), len(b)), meanA: stats.Mean(a), meanB: stats.Mean(b)}
	if res, err := stats.Welch(a, b); err == nil {
		row.p, row.pOK = res.P, true
	}
	return row
}

// comparisonRows compares the two arms of every scenario in the tree,
// Welch-testing per-round PLTs — the paper's §3.3 procedure applied to
// whatever the bundle tree holds.
func (r report) comparisonRows() []abRow {
	var rows []abRow
	for _, p := range pairArms(r.cells, func(plts []float64, s core.BundleSummary) []float64 {
		return append(plts, s.PLTSeconds)
	}) {
		rows = append(rows, p.welch("", p.a, p.b))
	}
	return rows
}

func armLabel(proto string, arm int, otherProto string) string {
	if proto == otherProto {
		return fmt.Sprintf("%s#%d", proto, arm)
	}
	return proto
}

func writeComparisonText(w io.Writer, rows []abRow, alpha float64) {
	fmt.Fprintf(w, "comparison (Welch's t-test, alpha=%g, positive diff = first arm faster):\n", alpha)
	fmt.Fprintf(w, "%-16s %-8s %-8s %6s %10s %10s %8s %10s  %s\n",
		"scenario", "arm A", "arm B", "rounds", "A mean", "B mean", "diff%", "p", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-8s %-8s %6d %9.3fs %9.3fs %+7.1f%% %10s  %s\n", r.group, r.armA, r.armB,
			r.rounds, r.meanA, r.meanB, stats.PercentDiff(r.meanB, r.meanA), r.pText(), r.verdict(alpha))
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

	var withBudgets []cellBundle
	for _, c := range r.cells {
		if len(c.sum.Budgets) == 0 {
			continue
		}
		withBudgets = append(withBudgets, c)
		fmt.Fprintf(w, "\n== %s (seed %d)  PLT %.3fs ==\n", c.rel, c.sum.Seed, c.sum.PLTSeconds)
		for i, b := range c.sum.Budgets {
			fmt.Fprintf(w, "conn %d  lifetime %s  transitions %d",
				i, time.Duration(b.LifetimeNS), b.Transitions)
			if b.LongestStallNS > 0 {
				fmt.Fprintf(w, "  longest stall %s %s @%s", b.LongestStallState,
					time.Duration(b.LongestStallNS), time.Duration(b.LongestStallAtNS))
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
	if len(withBudgets) == 0 {
		return fmt.Errorf("no budgets in any bundle (runs predate profiling, or summary.json was written without it)")
	}
	if rows := budgetComparison(withBudgets); len(rows) > 0 {
		fmt.Fprintln(w)
		writeBudgetComparison(w, rows)
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
		end := min(int(float64(width)*float64(cum)/float64(b.LifetimeNS)), width)
		for len(out) < end {
			out = append(out, budgetGlyphs[s])
		}
	}
	for len(out) < width {
		out = append(out, ' ')
	}
	return string(out)
}

// budgetComparison pairs the arms of every scenario among cells that
// carry budgets and compares each profile component's per-round total
// (summed over that cell's connections) between them. Components zero in
// both arms are dropped.
func budgetComparison(cells []cellBundle) []abRow {
	// Per arm: [state][]per-round seconds.
	totals := func(perState [][]float64, s core.BundleSummary) [][]float64 {
		if perState == nil {
			perState = make([][]float64, profile.NumStates)
		}
		for st := range perState {
			var total int64
			for _, b := range s.Budgets {
				total += b.Component(st)
			}
			perState[st] = append(perState[st], float64(total)/1e9)
		}
		return perState
	}
	var rows []abRow
	for _, p := range pairArms(cells, totals) {
		for s := 0; s < profile.NumStates; s++ {
			// A component's time is never negative, so a zero mean is
			// zero in every round.
			if row := p.welch(profile.StateByIndex(s).String(), p.a[s], p.b[s]); row.meanA != 0 || row.meanB != 0 {
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func writeBudgetComparison(w io.Writer, rows []abRow) {
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
		fmt.Fprintf(w, "%-16s %-8s %-8s %-14s %6d %9.3fs %9.3fs %+9.3fs %10s %s\n",
			group, r.armA, r.armB, r.state, r.rounds, r.meanA, r.meanB, r.meanA-r.meanB, r.pText(), r.stars())
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
		status, class := "completed", ""
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
			verdict, class := row.verdict(r.alpha), ""
			if verdict == "significant" {
				class = " class=\"sig\""
			}
			fmt.Fprintf(&b, "<tr%s><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%.3fs</td><td>%.3fs</td><td>%+.1f%%</td><td>%s</td><td>%s</td></tr>\n",
				class, html.EscapeString(row.group), html.EscapeString(row.armA), html.EscapeString(row.armB),
				row.rounds, row.meanA, row.meanB, stats.PercentDiff(row.meanB, row.meanA), row.pText(), verdict)
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
			level = min(max(int((cur-lo)/span*float64(len(sparkLevels)-1)), 0), len(sparkLevels)-1)
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
