package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// machine is the fingerprint every result carries: host times from
// different machines, Go versions or GOMAXPROCS do not compare.
type machine struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	TmpFS      string `json:"tmp_fs"` // filesystem type under the scratch directory
}

// runRecord is one invocation's result; a result file holds one per
// line, so paired comparisons append run after run to the same file.
type runRecord struct {
	Commit    string           `json:"commit"`
	Machine   machine          `json:"machine"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workloads []workloadResult `json:"workloads"`
}

func fingerprint(tmp string) machine {
	return machine{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		TmpFS:      fsType(tmp),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: the type of the longest
// mount point in /proc/mounts that is a prefix of it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// commit is the checked-out revision, or "unknown" outside a git
// work tree (the benchmark driver's checkouts are plain directories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// contractLine is the JSON object the benchmark contract asks for as
// the last line of standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the workload's metrics as "workload metric value unit"
// lines, then the contract's JSON object on a line of its own.
func (r workloadResult) print(w io.Writer, traced bool) {
	info := func(name string, v any, unit string) { fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, name, v, unit) }
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		info(name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for name, m := range r.Wall {
		info(name, m.Value, m.Unit)
	}
	failedShare := 0.0
	if r.Attempted > 0 {
		failedShare = float64(r.Failed) / float64(r.Attempted)
	}
	info("failed_share", failedShare, "ratio")
	info("sim_digest", r.SimDigest, "fnv64")
	info("sim_s_per_lap", r.SimSPerLap, "s")
	info("cells_per_lap", r.CellsPerLap, "cells")
	if !traced {
		info("laps", r.Laps, "laps")
		info("lap_ms_p50", r.LapMSP50, "ms")
		info("lap_ms_p90", r.LapMSP90, "ms")
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	line, err := json.Marshal(contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// appendRun adds the run to the result file at path as one JSON line.
func appendRun(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRuns loads every run of a result file.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for n := 1; sc.Scan(); n++ {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		runs = append(runs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}
