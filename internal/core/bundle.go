package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"quiclab/internal/metrics"
	"quiclab/internal/profile"
	"quiclab/internal/statemachine"
	"quiclab/internal/trace"
)

// Report bundles: one directory per matrix cell holding every artifact
// needed to explain that run — the summary JSON, the sampled
// time-series, the qlog-style event stream, and the inferred
// congestion-control state machine. quicreport renders a bundle tree
// into a browsable report; any other tool can consume the files
// directly (the CSV loads into a dataframe, the DOT into Graphviz).
//
// Layout under Options.BundleDir:
//
//	<dir>/<experiment>/s<scenario>/r<round>-<arm>-<proto>/
//	    summary.json       BundleSummary
//	    series.csv         metrics.WriteCSV (series,kind,t_ns,value)
//	    qlog.jsonl         trace.WriteJSONL event stream
//	    statemachine.dot   statemachine.Infer(...).DOT()

// The fixed file names inside one cell's bundle directory.
const (
	BundleSummaryFile = "summary.json"
	BundleSeriesFile  = "series.csv"
	BundleQlogFile    = "qlog.jsonl"
	BundleDOTFile     = "statemachine.dot"
)

// BundleSummary is the summary.json shape: cell identity, the headline
// measurement, the rolled-up event summary, and per-series metadata
// (point counts and effective cadences; the points themselves live in
// series.csv).
type BundleSummary struct {
	Experiment    string  `json:"experiment"`
	Scenario      int     `json:"scenario"`
	Round         int     `json:"round"`
	Proto         string  `json:"proto"`
	Arm           int     `json:"arm"`
	Seed          int64   `json:"seed"`
	PLTSeconds    float64 `json:"plt_seconds"`
	Completed     bool    `json:"completed"`
	FailureReason string  `json:"failure_reason,omitempty"`
	EndTimeNS     int64   `json:"end_time_ns"`

	Trace  trace.Summary      `json:"trace"`
	Series []BundleSeriesMeta `json:"series"`
	// Budgets holds the per-connection stall-attribution budgets
	// (server side, creation order) when the run had Scenario.Profile.
	Budgets []profile.Budget `json:"budgets,omitempty"`
}

// BundleSeriesMeta is one series' metadata entry in summary.json.
type BundleSeriesMeta struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	CadenceNS   int64  `json:"cadence_ns"`
	Downsamples int    `json:"downsamples,omitempty"`
	Points      int    `json:"points"`
}

// CellDir returns the canonical bundle directory for a cell under root.
func CellDir(root string, c Cell) string {
	return filepath.Join(root, c.Experiment,
		fmt.Sprintf("s%d", c.Scenario),
		fmt.Sprintf("r%d-%d-%s", c.Round, c.Arm, c.Proto))
}

// WriteBundle writes one cell's report bundle into dir, creating it.
// The Result must come from a run with Scenario.Metrics and
// Scenario.TraceEvents enabled (an empty qlog or series file is written
// otherwise — readable, just uninformative).
func WriteBundle(dir string, c Cell, seed int64, res Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sum := BundleSummary{
		Experiment: c.Experiment,
		Scenario:   c.Scenario,
		Round:      c.Round,
		Proto:      c.Proto.String(),
		Arm:        c.Arm,
		Seed:       seed,
		PLTSeconds: res.PLT.Seconds(),
		Completed:  res.Completed,
		EndTimeNS:  int64(res.EndTime),
		Trace:      res.ServerSummary(),
		Budgets:    res.Budgets,
	}
	if res.FailureReason != FailNone {
		sum.FailureReason = res.FailureReason.String()
	}
	for _, s := range res.Metrics.All() {
		sum.Series = append(sum.Series, BundleSeriesMeta{
			Name:        s.Name(),
			Kind:        s.Kind().String(),
			CadenceNS:   int64(s.Cadence()),
			Downsamples: s.Downsamples(),
			Points:      s.Len(),
		})
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, BundleSummaryFile), append(data, '\n'), 0o644); err != nil {
		return err
	}

	sf, err := os.Create(filepath.Join(dir, BundleSeriesFile))
	if err != nil {
		return err
	}
	if err := res.Metrics.WriteCSV(sf); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}

	qf, err := os.Create(filepath.Join(dir, BundleQlogFile))
	if err != nil {
		return err
	}
	if err := res.ServerTrace.WriteJSONL(qf); err != nil {
		qf.Close()
		return err
	}
	if err := qf.Close(); err != nil {
		return err
	}

	model := statemachine.Infer([]statemachine.Trace{
		statemachine.FromRecorder(res.ServerTrace, res.EndTime),
	})
	return os.WriteFile(filepath.Join(dir, BundleDOTFile), []byte(model.DOT()), 0o644)
}

// ReadBundleSummary loads a cell's summary.json.
func ReadBundleSummary(dir string) (BundleSummary, error) {
	var sum BundleSummary
	data, err := os.ReadFile(filepath.Join(dir, BundleSummaryFile))
	if err != nil {
		return sum, err
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		return sum, fmt.Errorf("%s: %w", filepath.Join(dir, BundleSummaryFile), err)
	}
	return sum, nil
}

// ReadBundleSeries loads a cell's series.csv.
func ReadBundleSeries(dir string) ([]metrics.SeriesData, error) {
	f, err := os.Open(filepath.Join(dir, BundleSeriesFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return metrics.ReadCSV(f)
}

// instrumented returns a copy of sc with everything a report bundle
// holds forced on: time-series metrics, the per-packet event log, and
// stall attribution. Sinks that write no bundle need less (Matrix.prep).
func (sc Scenario) instrumented() Scenario {
	sc.Metrics = true
	sc.TraceEvents = true
	sc.Profile = true
	return sc
}
