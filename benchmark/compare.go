package main

import (
	"fmt"
	"io"
	"strings"
)

// minRunsForSpread is how many runs a side needs before its quartiles
// mean anything.
const minRunsForSpread = 4

// verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// row is one (workload, end-to-end metric) comparison.
type row struct {
	parent  float64 // median over the parent's runs
	change  float64 // median over the change's runs
	worse   float64 // share of the parent's median the change is worse by (negative: better)
	spread  float64 // widest quartile distance of either side as a share of its median; 0 when unknown
	verdict string
}

// judge applies the bound: worse than the parent's median by more than
// the bound is a regression; when the run-to-run spread is itself wider
// than the bound the medians decide nothing, and the row is unresolved
// unless every run of one side beats every run of the other.
func judge(spec metricSpec, parent, change []float64) row {
	r := row{parent: median(parent), change: median(change)}
	// cost turns every metric into lower-is-better.
	cost := func(xs []float64) []float64 {
		if spec.Better != "higher" {
			return xs
		}
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = -x
		}
		return out
	}
	pc, cc := cost(parent), cost(change)
	if r.parent != 0 {
		r.worse = (median(cc) - median(pc)) / r.parent
	}
	r.verdict = verdictOK
	if r.worse > spec.Bound {
		r.verdict = verdictRegressed
	}
	if len(parent) < minRunsForSpread || len(change) < minRunsForSpread {
		return r
	}
	for _, side := range [][]float64{parent, change} {
		q1, q3 := quartiles(side)
		if m := median(side); m != 0 && (q3-q1)/m > r.spread {
			r.spread = (q3 - q1) / m
		}
	}
	if r.spread <= spec.Bound {
		return r
	}
	// Too noisy for the medians: only a clean separation decides.
	switch {
	case percentile(cc, 100) < percentile(pc, 0):
		r.verdict = verdictOK
	case percentile(cc, 0) > percentile(pc, 100) && r.worse > spec.Bound:
		r.verdict = verdictRegressed
	default:
		r.verdict = verdictUnresolved
	}
	return r
}

// compareFiles prints one row per (workload, end-to-end metric) of the
// change's result file against the parent's and returns the exit code:
// 1 on any regression.
func compareFiles(w io.Writer, parentPath, changePath string) int {
	parent, err := readRuns(parentPath)
	if err == nil {
		var change []runRecord
		if change, err = readRuns(changePath); err == nil {
			return compareRuns(w, parent, change)
		}
	}
	fmt.Fprintln(w, "compare:", err)
	return 2
}

func compareRuns(w io.Writer, parent, change []runRecord) int {
	for _, warning := range mismatches(parent, change) {
		fmt.Fprintf(w, "WARNING %s\n", warning)
	}
	if len(parent) < minRunsForSpread || len(change) < minRunsForSpread {
		fmt.Fprintf(w, "WARNING %d and %d runs: fewer than %d a side, so run-to-run spread is not measured and no row can be unresolved\n",
			len(parent), len(change), minRunsForSpread)
	}
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "spread", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			p, c := values(parent, wl.name, spec.Name), values(change, wl.name, spec.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			r := judge(spec, p, c)
			if r.verdict == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.name, spec.Name, r.parent, r.change, 100*r.worse, 100*r.spread, 100*spec.Bound, r.verdict)
		}
		pf, cf := failedOf(parent, wl.name), failedOf(change, wl.name)
		if cf > pf {
			code = 1
			fmt.Fprintf(w, "%-14s %-18s %14d %14d %38s\n", wl.name, "failed", pf, cf, verdictRegressed)
		}
	}
	return code
}

// values collects one metric of one workload over the untraced runs.
func values(runs []runRecord, workload, name string) []float64 {
	var out []float64
	for _, run := range runs {
		if run.Traced {
			continue
		}
		for _, r := range run.Workloads {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func failedOf(runs []runRecord, workload string) int {
	n := 0
	for _, run := range runs {
		for _, r := range run.Workloads {
			if r.Workload == workload {
				n += r.Failed
			}
		}
	}
	return n
}

// mismatches lists what makes the two files incomparable: a different
// sim_digest means host times of different simulated work; a different
// machine, Go version or GOMAXPROCS means different hardware or runtime.
func mismatches(parent, change []runRecord) []string {
	var out []string
	differ := func(what string, get func(runRecord) string) {
		seen := map[string]bool{}
		var vals []string
		for _, run := range append(append([]runRecord{}, parent...), change...) {
			if v := get(run); !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		if len(vals) > 1 {
			out = append(out, fmt.Sprintf("%s differs across runs (%s): host times are not comparable", what, strings.Join(vals, " | ")))
		}
	}
	differ("Go version", func(r runRecord) string { return r.Machine.GoVersion })
	differ("GOMAXPROCS", func(r runRecord) string { return fmt.Sprint(r.Machine.GOMAXPROCS) })
	differ("CPU model", func(r runRecord) string { return r.Machine.CPUModel })
	// Same workload, same seed, same code: same simulated answers.
	type key struct {
		workload string
		seed     int64
	}
	digests := map[key]string{}
	flagged := map[key]bool{}
	for _, run := range append(append([]runRecord{}, parent...), change...) {
		for _, res := range run.Workloads {
			k := key{res.Workload, run.Seed}
			if run.Traced || flagged[k] {
				continue
			}
			if d, ok := digests[k]; ok && d != res.SimDigest {
				flagged[k] = true
				out = append(out, fmt.Sprintf("sim_digest of %s at seed %d differs across runs (%s | %s): host times compare different simulated work",
					k.workload, k.seed, d, res.SimDigest))
			}
			digests[k] = res.SimDigest
		}
	}
	return out
}
