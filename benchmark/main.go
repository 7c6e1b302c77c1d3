// Command benchmark is quiclab's performance benchmark: five named
// workloads timed end to end in host time, with the simulated answers
// checked rather than gated, and a traced run that times each layer from
// outside through a ladder of rungs. README.md in this directory has the
// method; BENCHMARK.json at the repository root has the contract.
//
//	go run ./benchmark                       every workload, end to end
//	go run ./benchmark -workload bulk -trace 1   one workload's layer ladder
//	go run ./benchmark -compare a.jsonl b.jsonl  parent against change
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// scratchRoot holds everything a run writes unless -o or -spans say
// otherwise: relative to the working directory, so a run from a
// checkout's root stays inside the checkout.
const scratchRoot = ".bench_build"

// Between minSetupSamples and maxSetupSamples fresh processes time the
// set-up, the more the cheaper it is (while setupBudget lasts); setup_s
// is their median.
const (
	minSetupSamples = 3
	maxSetupSamples = 7
	setupBudget     = 2 * time.Second
)

func main() {
	var (
		names     = flag.String("workload", "", "comma-separated workloads to run (default: all of "+workloadNames()+")")
		seed      = flag.Int64("seed", 1, "base of every per-cell seed")
		seconds   = flag.Float64("seconds", runSeconds, "how long each workload's laps are timed for")
		trace     = flag.Int("trace", 0, "1 runs the layer ladder and reports the per-layer metrics instead")
		spans     = flag.String("spans", filepath.Join(scratchRoot, "spans.json"), "where a traced run writes its spans")
		out       = flag.String("o", "", "result file to append this run to (one JSON line per run)")
		compare   = flag.Bool("compare", false, "compare two result files: -compare parent.jsonl change.jsonl")
		setupOnly = flag.Bool("setup-only", false, "set the workload up and exit (what setup_s times; used by the benchmark itself)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare parent.jsonl change.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var selected []workload
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", name, workloadNames())
			os.Exit(2)
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		selected = workloads
	}

	// One processor: a lap's time is then all the CPU work it caused,
	// the collector's included, done in sequence, and no part of it
	// depends on a second CPU being free. On the 2-vCPU sandbox, twenty
	// runs interleaved with twenty at GOMAXPROCS 2 spread 4.4 % against
	// 12.7 % (sweep) and 2.6 % against 6.5 % (instrumented). What needs
	// more processors — the sweep's worker-count check, the ladder's
	// rung 6 — raises it to par for that stretch (withProcs).
	par := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(1)

	tmp := filepath.Join(scratchRoot, "tmp", fmt.Sprint(os.Getpid()))
	code, err := run(selected, options{
		seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), par: par,
		traced: *trace == 1, spans: *spans, out: *out, setupOnly: *setupOnly, tmp: tmp,
	})
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

type options struct {
	seed      int64
	duration  time.Duration
	par       int
	traced    bool
	spans     string
	out       string
	setupOnly bool
	tmp       string
}

// run measures the selected workloads and returns the exit code: 1 when
// any check failed.
func run(selected []workload, o options) (int, error) {
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return 1, err
	}
	var results []workloadResult
	var tr tracer
	for _, w := range selected {
		var res workloadResult
		switch {
		case o.setupOnly:
			p, err := setUp(w, o.seed, o.par, o.tmp)
			if err != nil {
				return 1, err
			}
			res = p.res
		case o.traced:
			var err error
			if res, err = tr.ladder(w, o); err != nil {
				return 1, err
			}
		default:
			setupS, err := sampleSetup(w, o.seed)
			if err != nil {
				return 1, err
			}
			p, err := setUp(w, o.seed, o.par, o.tmp)
			if err != nil {
				return 1, err
			}
			if err := p.measure(o.duration); err != nil {
				return 1, err
			}
			res = p.res
			res.Metrics["setup_s"] = metric{setupS, "s"}
		}
		results = append(results, res)
		if o.setupOnly {
			for _, f := range res.Failures {
				fmt.Fprintln(os.Stderr, "FAILED", f)
			}
			continue
		}
		res.print(os.Stdout, o.traced)
	}
	if o.traced {
		if err := tr.write(o.spans); err != nil {
			return 1, err
		}
	}
	if o.out != "" && !o.setupOnly {
		rec := runRecord{Commit: commit(), Machine: fingerprint(o.tmp), Seed: o.seed,
			Seconds: o.duration.Seconds(), Traced: o.traced, Workloads: results}
		if err := appendRun(o.out, rec); err != nil {
			return 1, err
		}
	}
	return exitCode(results), nil
}

// withProcs runs fn at GOMAXPROCS n and restores the setting.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// exitCode is 1 when any check of any workload failed.
func exitCode(results []workloadResult) int {
	for _, r := range results {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// sampleSetup times the workload's set-up in fresh processes of this
// program and returns the median of their CPU times (user and system,
// start to exit) in seconds. A fresh process pays what a
// user's first run pays — runtime and package initialisation, cold
// pools, first-use caches — which repeating the set-up inside one
// process would hide after the first time.
func sampleSetup(w workload, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var samples []float64
	for start := time.Now(); len(samples) < minSetupSamples || (len(samples) < maxSetupSamples && time.Since(start) < setupBudget); {
		cmd := exec.Command(self, "-setup-only", "-workload", w.name, "-seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up of %s in a fresh process: %w", w.name, err)
		}
		samples = append(samples, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
	}
	return median(samples), nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ",")
}
