// Command quicbench regenerates the paper's tables and figures.
//
//	quicbench -list               enumerate experiments
//	quicbench -exp fig6a          run one experiment (paper-scale rounds)
//	quicbench -exp all -quick     run everything with trimmed matrices
//	quicbench -exp table4 -rounds 5
//	quicbench -exp all -quick -ledger runs.jsonl
//	quicreport -timing runs.jsonl  where the sweep's wall time went
//
// Crash-tolerant sweeps:
//
//	quicbench -exp all -checkpoint ckpt/        durable; Ctrl-C (or a kill)
//	                                            then the same command resumes
//	quicbench -exp fig6a -checkpoint ckpt/ -shard 0/2   one shard of the cells
//	quicbench -merge -checkpoint merged/ shardA/ shardB/  stitch shard ckpts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/core"
	"quiclab/internal/obs"
)

// parseShard parses "i/n" with 0 <= i < n and n >= 1.
func parseShard(s string) (i, n int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("want i/n, e.g. 0/4")
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("want 0 <= i < n, got %d/%d", i, n)
	}
	return i, n, nil
}

// mergeCheckpoints implements -merge: for every distinct *.ckpt basename
// across the input directories, stitch the matching shard files into
// outDir. Returns the number of merged experiments.
func mergeCheckpoints(outDir string, inDirs []string) (int, error) {
	if len(inDirs) == 0 {
		return 0, fmt.Errorf("no input checkpoint directories (usage: quicbench -merge -checkpoint OUT IN...)")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	byBase := map[string][]string{}
	for _, dir := range inDirs {
		matches, err := filepath.Glob(filepath.Join(dir, "*"+obs.CheckpointExt))
		if err != nil {
			return 0, err
		}
		for _, m := range matches {
			base := filepath.Base(m)
			byBase[base] = append(byBase[base], m)
		}
	}
	if len(byBase) == 0 {
		return 0, fmt.Errorf("no %s files found under %s", obs.CheckpointExt, strings.Join(inDirs, ", "))
	}
	bases := make([]string, 0, len(byBase))
	for b := range byBase {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, base := range bases {
		cells, err := obs.MergeCheckpointFiles(filepath.Join(outDir, base), byBase[base])
		if err != nil {
			return 0, err
		}
		fmt.Printf("merged %s: %d cells from %d shard checkpoint(s)\n", base, cells, len(byBase[base]))
	}
	return len(bases), nil
}

func main() { os.Exit(quicbench()) }

// quicbench is the command. It returns the exit code instead of calling
// os.Exit, so the deferred -cpuprofile/-memprofile writers run on every
// exit path — an interrupted or failed sweep is when a profile matters.
func quicbench() (code int) {
	var (
		exp        = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list       = flag.Bool("list", false, "list experiments")
		quick      = flag.Bool("quick", false, "trimmed matrices and fewer rounds")
		rounds     = flag.Int("rounds", 0, "override paired rounds per cell (default 10, quick 3)")
		seed       = flag.Int64("seed", 1, "base seed")
		parallel   = flag.Int("parallel", 0, "matrix-engine workers: 0 = one per CPU, 1 = sequential")
		progress   = flag.Bool("progress", false, "print per-cell completion lines to stderr")
		ledgerPath = flag.String("ledger", "", "append a run ledger (JSONL: manifest, per-cell outcomes, anomaly findings) to this file")
		bundleDir  = flag.String("bundle", "", "write per-cell report bundles under this directory (render with quicreport)")
		ckptDir    = flag.String("checkpoint", "", "durable sweeps: append fsync'd per-cell checkpoints to DIR/<experiment>.ckpt; re-running the same command resumes")
		resumeFrom = flag.String("resume-from", "", "restore completed cells from this checkpoint dir or .ckpt file (default: the -checkpoint dir)")
		cellTO     = flag.Duration("cell-timeout", 0, "abandon a cell after this long, classified cell_timeout (0 = no limit)")
		shard      = flag.String("shard", "", "run one shard i/n of each experiment's cell space (requires -checkpoint; rendered output is suppressed)")
		merge      = flag.Bool("merge", false, "merge mode: stitch shard checkpoint dirs (args) into the -checkpoint dir")
		ccAlgo     = flag.String("cc", "", "override the congestion controller for every scenario (see `quicsim -cc help`); changes the measurements")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	if *ccAlgo != "" && !cc.Valid(*ccAlgo) {
		fmt.Fprintf(os.Stderr, "quicbench: unknown -cc algorithm %q (registered: %s)\n",
			*ccAlgo, strings.Join(cc.Algorithms(), ", "))
		return 2
	}

	if *merge {
		if *ckptDir == "" {
			fmt.Fprintln(os.Stderr, "quicbench: -merge requires -checkpoint OUT (the merged output directory)")
			return 2
		}
		if _, err := mergeCheckpoints(*ckptDir, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "quicbench: -merge: %v\n", err)
			return 1
		}
		return 0
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "quicbench: invalid -parallel %d (want 0 for auto or a positive worker count)\n", *parallel)
		return 2
	}
	shardIdx, shardCnt := 0, 0
	if *shard != "" {
		var err error
		shardIdx, shardCnt, err = parseShard(*shard)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quicbench: invalid -shard %q: %v\n", *shard, err)
			return 2
		}
		if *ckptDir == "" {
			fmt.Fprintln(os.Stderr, "quicbench: -shard requires -checkpoint (a shard's only useful output is its checkpoint)")
			return 2
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quicbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "quicbench: start cpu profile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "quicbench: -memprofile: %v\n", err)
				code = 2
				return
			}
			runtime.GC() // up-to-date allocation statistics
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "quicbench: write mem profile: %v\n", err)
				code = 2
			}
		}()
	}

	if *list || *exp == "" {
		fmt.Println("experiments (paper tables and figures):")
		for _, e := range core.Experiments() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}
	exps := core.Experiments()
	if *exp != "all" {
		e, ok := core.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
			return 2
		}
		exps = []core.Experiment{e}
	}

	opts := core.Options{
		Rounds: *rounds, Quick: *quick, Seed: *seed, Parallelism: *parallel,
		BundleDir:     *bundleDir,
		CheckpointDir: *ckptDir,
		ResumeFrom:    *resumeFrom,
		CellTimeout:   *cellTO,
		ShardIndex:    shardIdx,
		ShardCount:    shardCnt,
		CC:            *ccAlgo,
	}

	// First SIGINT/SIGTERM requests a graceful drain: in-flight cells
	// finish (and checkpoint), no new cells start, and the process exits
	// resumable. A second signal exits immediately.
	interrupt := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "quicbench: interrupt: draining in-flight cells (repeat to exit immediately)")
		close(interrupt)
		<-sigc
		os.Exit(130)
	}()
	opts.Interrupt = interrupt

	// Sweep accounting across every matrix the chosen experiments run.
	var (
		interrupted bool
		agg         core.MatrixStats
		exitCode    int
	)
	opts.Stats = func(st core.MatrixStats) {
		agg.SkippedCells += st.SkippedCells
		agg.Panics += st.Panics
		agg.Timeouts += st.Timeouts
		agg.UnrunCells += st.UnrunCells
		if st.Interrupted {
			interrupted = true
		}
		if st.BundleErrs > 0 {
			exitCode = 1
			fmt.Fprintf(os.Stderr, "quicbench: %s: %d bundle write failure(s), first: %v\n",
				st.Experiment, st.BundleErrs, st.BundleErr)
			for _, s := range st.BundleErrSamples {
				fmt.Fprintf(os.Stderr, "quicbench:   %s\n", s)
			}
		}
		if st.LedgerErr != nil {
			exitCode = 1
			fmt.Fprintf(os.Stderr, "quicbench: %s: %d ledger record(s) lost, first error: %v\n",
				st.Experiment, st.LedgerErrs, st.LedgerErr)
		}
		if st.CheckpointErr != nil {
			exitCode = 1
			fmt.Fprintf(os.Stderr, "quicbench: %s: checkpointing: %v\n", st.Experiment, st.CheckpointErr)
		}
	}

	if *ledgerPath != "" {
		l, err := obs.CreateLedger(*ledgerPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quicbench: -ledger: %v\n", err)
			return 1
		}
		opts.Ledger = l
	}

	if *progress {
		// Progress goes to stderr so table output stays clean; cells are
		// reported in completion order, which varies with -parallel (the
		// rendered tables never do).
		opts.Progress = func(ct core.CellTiming) {
			mark := ""
			if ct.Resumed {
				mark = " resumed"
			}
			fmt.Fprintf(os.Stderr, "  [%3d/%3d] %s sc=%d round=%d %s seed=%d wall=%v%s\n",
				ct.Completed, ct.Total, ct.Cell.Experiment, ct.Cell.Scenario,
				ct.Cell.Round, ct.Cell.Proto, ct.Seed, ct.Wall.Round(time.Millisecond), mark)
		}
	}
	// A shard's rendered tables aggregate only its owned cells, so they
	// are suppressed: the shard's useful output is its checkpoint (and
	// bundles), which -merge + a resumed full run stitch together.
	expOut := io.Writer(os.Stdout)
	if shardCnt > 1 {
		fmt.Fprintf(os.Stderr, "quicbench: running shard %d/%d; rendered output suppressed (merge checkpoints, then resume a full run)\n",
			shardIdx, shardCnt)
		expOut = io.Discard
	}
	for _, e := range exps {
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		fmt.Printf("   paper reported: %s\n", e.Paper)
		start := time.Now()
		e.Run(expOut, opts)
		if interrupted {
			fmt.Fprintf(os.Stderr, "quicbench: %s interrupted; re-run the same command to resume\n", e.ID)
			break
		}
		fmt.Printf("   [%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if opts.Ledger != nil {
		if err := opts.Ledger.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "quicbench: writing ledger: %v\n", err)
			return 1
		}
	}
	failed := agg.Panics + agg.Timeouts
	if agg.SkippedCells > 0 || failed > 0 {
		fmt.Fprintf(os.Stderr, "quicbench: cells resumed=%d panicked=%d timed-out=%d\n",
			agg.SkippedCells, agg.Panics, agg.Timeouts)
	}
	if interrupted {
		return 130
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "quicbench: %d cell(s) failed; the printed tables count them as zeros\n", failed)
		return 1
	}
	return exitCode
}
