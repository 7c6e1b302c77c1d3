// Command quicsim runs a single QUIC-vs-TCP comparison in one emulated
// scenario and prints the paired result — the quickest way to poke at
// the testbed.
//
// Example:
//
//	quicsim -rate 10 -objects 1 -size 1000000 -loss 1 -rounds 10
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/core"
	"quiclab/internal/device"
	"quiclab/internal/obs"
	"quiclab/internal/web"
)

func main() { os.Exit(quicsim()) }

// quicsim is the command. It returns the exit code instead of calling
// os.Exit, so the deferred ledger close runs on every exit path — a
// failed run's ledger is the record of why it failed.
func quicsim() (code int) {
	var (
		rate     = flag.Float64("rate", 10, "bottleneck rate (Mbps)")
		rtt      = flag.Duration("rtt", 36*time.Millisecond, "base RTT")
		queue    = flag.Int("queue", 0, "bottleneck queue capacity (bytes; 0 = scenario default)")
		extra    = flag.Duration("delay", 0, "extra one-way... full-path delay added to RTT")
		loss     = flag.Float64("loss", 0, "loss percentage (both directions)")
		jitter   = flag.Duration("jitter", 0, "per-packet jitter (causes reordering)")
		objects  = flag.Int("objects", 1, "number of objects on the page")
		size     = flag.Int("size", 100<<10, "object size (bytes)")
		rounds   = flag.Int("rounds", 10, "paired rounds")
		seed     = flag.Int64("seed", 1, "base seed")
		dev      = flag.String("device", "Desktop", "client device: Desktop, Nexus6, MotoG")
		macw     = flag.Int("macw", 0, "QUIC max allowed congestion window (packets; 0=430)")
		nack     = flag.Int("nack", 0, "QUIC NACK threshold (0=3)")
		no0rtt   = flag.Bool("no0rtt", false, "disable QUIC 0-RTT")
		ssBug    = flag.Bool("ssbug", false, "enable the Chromium-52 ssthresh bug")
		tconns   = flag.Int("tcpconns", 0, "parallel TCP connections (0=1)")
		prox     = flag.String("proxy", "", "proxy mode: '', tcp, quic")
		parallel = flag.Int("parallel", 0, "matrix-engine workers: 0 = one per CPU, 1 = sequential")
		bundle   = flag.String("bundle", "", "write a per-round report bundle tree under this directory (render with quicreport)")
		ledgerF  = flag.String("ledger", "", "append a run ledger (JSONL: manifest, per-round outcomes, anomaly findings) to this file")
		ckptDir  = flag.String("checkpoint", "", "durable run: append fsync'd per-round checkpoints to DIR/cli.ckpt; re-running the same command resumes")
		cellTO   = flag.Duration("cell-timeout", 0, "abandon a round's run after this long, classified cell_timeout (0 = no limit)")
		ccAlgo   = flag.String("cc", "", "congestion controller for both transports ('help' lists; default: calibrated Cubic)")
	)
	flag.Parse()

	if *ccAlgo == "help" {
		fmt.Printf("registered congestion controllers: %s\n", strings.Join(cc.Algorithms(), ", "))
		return 0
	}
	if *ccAlgo != "" && !cc.Valid(*ccAlgo) {
		fmt.Fprintf(os.Stderr, "quicsim: unknown -cc algorithm %q (registered: %s)\n",
			*ccAlgo, strings.Join(cc.Algorithms(), ", "))
		return 2
	}

	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "quicsim: invalid -parallel %d (want 0 for auto or a positive worker count)\n", *parallel)
		return 2
	}
	if *queue < 0 {
		fmt.Fprintf(os.Stderr, "quicsim: invalid -queue %d (want 0 for the scenario default or a positive byte count)\n", *queue)
		return 2
	}
	profile, ok := device.Lookup(*dev)
	if !ok {
		names := make([]string, 0, 3)
		for _, d := range device.Profiles() {
			names = append(names, d.Name)
		}
		fmt.Fprintf(os.Stderr, "quicsim: unknown -device %q (known devices: %s)\n",
			*dev, strings.Join(names, ", "))
		return 2
	}

	sc := core.Scenario{
		Seed:          *seed,
		RateMbps:      *rate,
		RTT:           *rtt,
		ExtraDelay:    *extra,
		LossPct:       *loss,
		Jitter:        *jitter,
		QueueBytes:    *queue,
		Page:          web.Page{NumObjects: *objects, ObjectSize: *size},
		Device:        profile,
		MACW:          *macw,
		NACKThreshold: *nack,
		Disable0RTT:   *no0rtt,
		SSThreshBug:   *ssBug,
		TCPConns:      *tconns,
		CCAlgo:        *ccAlgo,
	}
	switch *prox {
	case "":
	case "tcp":
		sc.Proxy = core.TCPProxy
	case "quic":
		sc.Proxy = core.QUICProxy
	default:
		fmt.Fprintf(os.Stderr, "unknown proxy mode %q\n", *prox)
		return 2
	}

	opts := core.Options{
		Rounds: *rounds, Seed: *seed, Parallelism: *parallel, BundleDir: *bundle,
		CheckpointDir: *ckptDir, CellTimeout: *cellTO,
	}

	// First SIGINT/SIGTERM requests a graceful drain: in-flight rounds
	// finish (and checkpoint), no new rounds start, and the process exits
	// resumable. A second signal exits immediately.
	interrupt := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "quicsim: interrupt: draining in-flight rounds (repeat to exit immediately)")
		close(interrupt)
		<-sigc
		os.Exit(130)
	}()
	opts.Interrupt = interrupt
	if *ledgerF != "" {
		l, err := obs.CreateLedger(*ledgerF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quicsim: -ledger: %v\n", err)
			return 1
		}
		defer func() {
			if err := l.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "quicsim: writing ledger: %v\n", err)
				code = 1
			}
		}()
		opts.Ledger = l
	}

	m := core.NewMatrix("cli", opts)
	cmp := m.Compare(sc)
	st := m.Run()
	if st.Interrupted {
		fmt.Fprintf(os.Stderr, "quicsim: interrupted with %d round(s) unrun; re-run the same command to resume\n",
			st.UnrunCells)
		return 130
	}
	if st.BundleErr != nil {
		fmt.Fprintf(os.Stderr, "quicsim: %d bundle write failure(s), first: %v\n",
			st.BundleErrs, st.BundleErr)
		for _, s := range st.BundleErrSamples {
			fmt.Fprintf(os.Stderr, "quicsim:   %s\n", s)
		}
		return 1
	}
	if st.LedgerErr != nil {
		fmt.Fprintf(os.Stderr, "quicsim: %d ledger record(s) lost, first error: %v\n",
			st.LedgerErrs, st.LedgerErr)
		return 1
	}
	if st.CheckpointErr != nil {
		fmt.Fprintln(os.Stderr, "quicsim: checkpointing:", st.CheckpointErr)
		return 1
	}
	if st.SkippedCells > 0 {
		fmt.Fprintf(os.Stderr, "quicsim: resumed %d round(s) from checkpoint\n", st.SkippedCells)
	}
	cm := *cmp
	fmt.Printf("scenario: rate=%gMbps rtt=%v(+%v) loss=%g%% jitter=%v page=%dx%dB device=%s\n",
		*rate, *rtt, *extra, *loss, *jitter, *objects, *size, *dev)
	fmt.Printf("QUIC mean PLT: %v\n", cm.QUICMean.Round(time.Millisecond))
	fmt.Printf("TCP  mean PLT: %v\n", cm.TCPMean.Round(time.Millisecond))
	verdict := "not significant (p=%.3f)\n"
	if cm.Significant {
		verdict = "significant (p=%.6f)\n"
	}
	fmt.Printf("diff: %+.1f%% (positive = QUIC faster), ", cm.PctDiff)
	fmt.Printf(verdict, cm.P)
	if cm.Incomplete > 0 {
		fmt.Printf("WARNING: %d/%d runs failed to complete (%s)\n",
			cm.Incomplete, 2*cm.Rounds, cm.FailureSummary())
	}
	if *bundle != "" {
		fmt.Printf("wrote %d report bundles under %s\n", 2*cm.Rounds, *bundle)
	}
	if failed := st.Panics + st.Timeouts; failed > 0 {
		fmt.Fprintf(os.Stderr, "quicsim: %d run(s) failed (panicked=%d timed-out=%d); the printed means count them as zeros\n",
			failed, st.Panics, st.Timeouts)
		return 1
	}
	return 0
}
