package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// warmupLaps run untimed before the timed laps, with every check on.
const warmupLaps = 3

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload's run reports.
type workloadResult struct {
	Workload    string            `json:"workload"`
	Why         string            `json:"why"`
	CellsPerLap int               `json:"cells_per_lap"`
	Laps        int               `json:"laps"`
	LapMSP50    float64           `json:"lap_ms_p50"`
	LapMSP90    float64           `json:"lap_ms_p90"`
	LapMS       []float64         `json:"lap_ms,omitempty"`     // every timed lap's CPU time, in order
	SlowestMS   []float64         `json:"slowest_ms,omitempty"` // each lap's slowest cell, CPU time
	WallMS      []float64         `json:"wall_ms,omitempty"`    // every timed lap's wall clock
	SimDigest   string            `json:"sim_digest"`
	SimSPerLap  float64           `json:"sim_s_per_lap"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"` // the first few, for the reader
	Metrics     map[string]metric `json:"metrics"`
	// Wall holds the same speed by the wall clock, for the reader: it is
	// what a user waits, and on a shared machine it moves with the
	// neighbours, so nothing is gated on it.
	Wall map[string]metric `json:"wall,omitempty"`
}

// maxFailureLines bounds the failure lines kept per workload; Failed
// still counts every failing cell.
const maxFailureLines = 20

func (r *workloadResult) record(attempted int, fails []failure) {
	r.Attempted += attempted
	r.Failed += failedCells(fails)
	for _, f := range fails {
		if len(r.Failures) < maxFailureLines {
			r.Failures = append(r.Failures, f.msg)
		}
	}
}

// prepared is a workload after set-up: warmed up, checked, and holding
// the first lap that every later lap must reproduce.
type prepared struct {
	r   *runner
	ref lapResult
	res workloadResult
}

// setUp builds the workload's cell list and scratch directory and runs
// the warm-up laps with every check on, including the checks that need
// extra runs (instruments off for instrumented, par workers for sweep).
// It is what setup_s times, in a fresh process (see sampleSetup).
func setUp(w workload, seed int64, par int, tmp string) (*prepared, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	p := &prepared{r: newRunner(w, seed, tmp)}
	p.res = workloadResult{Workload: w.name, Why: w.why, Metrics: map[string]metric{}}
	for i := 0; i < warmupLaps; i++ {
		l, err := p.r.lap()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			p.ref = l
			p.res.record(len(l.cells), p.r.verify(l, nil))
		} else {
			p.res.record(len(l.cells), p.r.verify(l, &p.ref))
		}
	}
	if w.sweep && par > 1 {
		// The engine promises the same bytes at any worker count.
		var l lapResult
		var err error
		p.r.par = par
		withProcs(par, func() { l, err = p.r.lap() })
		p.r.par = 1
		if err != nil {
			return nil, err
		}
		p.res.record(len(l.cells), p.r.verify(l, &p.ref))
	}
	p.res.CellsPerLap = len(p.ref.cells)
	p.res.SimDigest = fmt.Sprintf("%016x", p.ref.digest())
	p.res.SimSPerLap = p.ref.simTime.Seconds()
	return p, nil
}

// measure times whole laps for d and fills in the end-to-end metrics
// (all but setup_s, which needs fresh processes). Closed loop: the next
// cell starts when the previous one returns. Host time is CPU time (see
// cpuNow); the wall clock only decides when to stop.
func (p *prepared) measure(d time.Duration) error {
	var lapMS, wallMS, slowMS []float64
	var mallocs, bytes uint64
	cells := 0
	for start := time.Now(); len(lapMS) == 0 || time.Since(start) < d; {
		l, err := p.r.lap()
		if err != nil {
			return err
		}
		p.res.record(len(l.cells), p.r.verify(l, &p.ref))
		lapMS = append(lapMS, ms(l.cpu))
		wallMS = append(wallMS, ms(l.wall))
		slowMS = append(slowMS, ms(l.slowest))
		mallocs += l.mallocs
		bytes += l.bytes
		cells += len(l.cells)
	}
	p.res.Laps = len(lapMS)
	p.res.LapMS, p.res.SlowestMS, p.res.WallMS = lapMS, slowMS, wallMS
	p.res.LapMSP50 = percentile(lapMS, 50)
	p.res.LapMSP90 = percentile(lapMS, 90)
	m := p.res.Metrics
	m["cells_per_s"] = metric{float64(p.res.CellsPerLap) / (fast5(lapMS) / 1000), "cells/s"}
	m["slowest_cell_ms"] = metric{fast5(slowMS), "ms"}
	p.res.Wall = map[string]metric{
		"cells_per_wall_s": {float64(p.res.CellsPerLap) / (fast5(wallMS) / 1000), "cells/s"},
	}
	m["allocs_per_cell"] = metric{float64(mallocs) / float64(cells), "allocs"}
	m["alloc_kb_per_cell"] = metric{float64(bytes) / 1024 / float64(cells), "KiB"}
	return nil
}
