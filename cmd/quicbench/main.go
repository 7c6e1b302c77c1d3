// Command quicbench regenerates the paper's tables and figures.
//
//	quicbench -list               enumerate experiments
//	quicbench -exp fig6a          run one experiment (paper-scale rounds)
//	quicbench -exp all -quick     run everything with trimmed matrices
//	quicbench -exp table4 -rounds 5
//	quicbench -exp all -quick -ledger runs.jsonl
//	quicreport timing runs.jsonl   where the sweep's wall time went
//
// Crash-tolerant sweeps:
//
//	quicbench -exp all -checkpoint ckpt/        durable; Ctrl-C (or a kill)
//	                                            then the same command resumes
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/core"
	"quiclab/internal/obs"
)

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
		ccAlgo     = flag.String("cc", "", "congestion controller for every cell on the calibrated default; a named one (fig3b's bbr, tournament arms) keeps its own (see `quicsim -cc help`); changes the measurements")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	if *ccAlgo != "" && !cc.Valid(*ccAlgo) {
		fmt.Fprintf(os.Stderr, "quicbench: unknown -cc algorithm %q (registered: %s)\n",
			*ccAlgo, strings.Join(cc.Algorithms(), ", "))
		return 2
	}

	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "quicbench: invalid -parallel %d (want 0 for auto or a positive worker count)\n", *parallel)
		return 2
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
		agg      core.MatrixStats
		exitCode int
	)
	opts.Stats = func(st core.MatrixStats) {
		agg.SkippedCells += st.SkippedCells
		agg.Panics += st.Panics
		agg.Interrupted = agg.Interrupted || st.Interrupted
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
	for _, e := range exps {
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		fmt.Printf("   paper reported: %s\n", e.Paper)
		start := time.Now()
		e.Run(os.Stdout, opts)
		if agg.Interrupted {
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
	if code := cellsExit(os.Stderr, agg); code != 0 {
		return code
	}
	return exitCode
}

// cellsExit reports the cells of every sweep the command ran (agg sums
// their MatrixStats) and returns the exit code they call for: 130 for an
// interrupted sweep, 1 when a cell panicked — its tables counted it as a
// zero, and the stderr line says so — else 0.
func cellsExit(w io.Writer, agg core.MatrixStats) int {
	if agg.SkippedCells > 0 || agg.Panics > 0 {
		fmt.Fprintf(w, "quicbench: cells resumed=%d panicked=%d\n", agg.SkippedCells, agg.Panics)
	}
	switch {
	case agg.Interrupted:
		return 130
	case agg.Panics > 0:
		fmt.Fprintf(w, "quicbench: %d cell(s) failed; the printed tables count them as zeros\n", agg.Panics)
		return 1
	}
	return 0
}
