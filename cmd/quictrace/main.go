// Command quictrace runs one instrumented page load (QUIC or TCP) and
// emits the root-cause artifacts the paper's methodology produces: a
// qlog-style per-packet event log (JSONL), its rolled-up summary (loss
// rate, spurious detections, RTT percentiles, time-in-state), the
// inferred congestion-control state machine (text + Graphviz DOT), the
// cwnd timeline (CSV), and the transport counters.
//
// Examples:
//
//	quictrace -proto quic -rate 50 -size 10485760 -device MotoG -qlog out.jsonl
//	quictrace -proto tcp -rate 20 -loss 1 -qlog tcp.jsonl -dot sm.dot -cwnd cwnd.csv
//	quictrace -proto quic -loss 1 -metrics out/ -cadence 5ms
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/core"
	"quiclab/internal/device"
	"quiclab/internal/statemachine"
	"quiclab/internal/trace"
	"quiclab/internal/web"
)

func main() {
	var (
		proto    = flag.String("proto", "quic", "transport to trace: quic or tcp")
		rate     = flag.Float64("rate", 50, "bottleneck rate (Mbps)")
		rtt      = flag.Duration("rtt", 36*time.Millisecond, "base RTT")
		loss     = flag.Float64("loss", 0, "loss percentage")
		jitter   = flag.Duration("jitter", 0, "per-packet jitter")
		objects  = flag.Int("objects", 1, "objects per page")
		size     = flag.Int("size", 10<<20, "object size (bytes)")
		dev      = flag.String("device", "Desktop", "client device")
		ccAlgo   = flag.String("cc", "", "congestion controller for the traced transport ('help' lists)")
		seed     = flag.Int64("seed", 1, "seed")
		qlogPath = flag.String("qlog", "", "write the server-side event log (JSONL) here")
		dotPath  = flag.String("dot", "", "write Graphviz DOT state machine here")
		cwndCSV  = flag.String("cwnd", "", "write cwnd timeline CSV here")
		metDir   = flag.String("metrics", "", "write the sampled time-series (series.csv) into this directory")
		cadence  = flag.Duration("cadence", 0, "metrics sampling cadence (0 = default 1ms; requires -metrics)")
	)
	flag.Parse()

	if *ccAlgo == "help" {
		fmt.Printf("registered congestion controllers: %s\n", strings.Join(cc.Algorithms(), ", "))
		return
	}
	if *ccAlgo != "" && !cc.Valid(*ccAlgo) {
		fmt.Fprintf(os.Stderr, "quictrace: unknown -cc algorithm %q (registered: %s)\n",
			*ccAlgo, strings.Join(cc.Algorithms(), ", "))
		os.Exit(2)
	}
	if *cadence < 0 {
		fmt.Fprintf(os.Stderr, "quictrace: invalid -cadence %v (must be >= 0)\n", *cadence)
		os.Exit(2)
	}
	if *cadence > 0 && *metDir == "" {
		fmt.Fprintln(os.Stderr, "quictrace: -cadence requires -metrics <dir>")
		os.Exit(2)
	}

	var p core.Proto
	switch strings.ToLower(*proto) {
	case "quic":
		p = core.QUIC
	case "tcp":
		p = core.TCP
	default:
		fmt.Fprintf(os.Stderr, "quictrace: unknown -proto %q (want quic or tcp)\n", *proto)
		os.Exit(2)
	}

	profile, ok := device.Lookup(*dev)
	if !ok {
		names := make([]string, 0, 3)
		for _, d := range device.Profiles() {
			names = append(names, d.Name)
		}
		fmt.Fprintf(os.Stderr, "quictrace: unknown -device %q (known devices: %s)\n",
			*dev, strings.Join(names, ", "))
		os.Exit(2)
	}

	sc := core.Scenario{
		Seed:        *seed,
		RateMbps:    *rate,
		RTT:         *rtt,
		LossPct:     *loss,
		Jitter:      *jitter,
		Page:        web.Page{NumObjects: *objects, ObjectSize: *size},
		Device:      profile,
		CCAlgo:      *ccAlgo,
		TraceEvents: true,
	}
	if *metDir != "" {
		sc.Metrics = true
		sc.MetricsCadence = *cadence
	}
	res := sc.RunPLT(p, *seed)
	fmt.Printf("proto: %s\n", p)
	fmt.Printf("PLT: %v (completed=%v)\n", res.PLT.Round(time.Millisecond), res.Completed)
	printCounters(res)

	fmt.Println("\nserver event summary:")
	fmt.Print(res.ServerSummary().String())

	model := statemachine.Infer([]statemachine.Trace{
		statemachine.FromRecorder(res.ServerTrace, res.EndTime),
	})
	fmt.Println()
	fmt.Print(model.String())

	if *qlogPath != "" {
		writeArtifact("qlog", *qlogPath, res.ServerTrace.WriteJSONL)
		fmt.Printf("wrote %s (%d events)\n", *qlogPath, len(res.ServerTrace.Events))
	}
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(model.DOT()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write dot:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *dotPath)
	}
	if *cwndCSV != "" {
		writeArtifact("cwnd csv", *cwndCSV, func(w io.Writer) error {
			bw := bufio.NewWriter(w)
			fmt.Fprintln(bw, "t_seconds,cwnd_bytes")
			// Every sample, from the event log (Recorder.Cwnd keeps 1 Hz).
			for _, e := range res.ServerTrace.Events {
				if e.Type == trace.EventCwndSample {
					fmt.Fprintf(bw, "%.6f,%.0f\n", e.T.Seconds(), e.Cwnd)
				}
			}
			return bw.Flush() // bufio keeps the first write error
		})
		fmt.Println("wrote", *cwndCSV)
	}
	if *metDir != "" {
		if err := os.MkdirAll(*metDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "write metrics:", err)
			os.Exit(1)
		}
		path := filepath.Join(*metDir, "series.csv")
		writeArtifact("metrics", path, res.Metrics.WriteCSV)
		fmt.Printf("wrote %s (%d series)\n", path, res.Metrics.Len())
	}
}

// writeArtifact creates path, hands it to write and closes it. A failure
// at any of the three steps is reported as "write <what>: ..." and exits 1:
// an artifact is only announced as written once Close has succeeded.
func writeArtifact(what, path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", what, err)
		os.Exit(1)
	}
}

// printCounters renders the legacy counter map in sorted order so the
// output is stable across runs.
func printCounters(res core.Result) {
	names := make([]string, 0, len(res.ServerTrace.Counters))
	for name := range res.ServerTrace.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Print("server counters:")
	for _, name := range names {
		fmt.Printf(" %s=%d", name, res.ServerTrace.Counters[name])
	}
	fmt.Println()
}
