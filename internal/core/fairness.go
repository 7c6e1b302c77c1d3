package core

import (
	"fmt"
	"time"

	"quiclab/internal/netem"
	"quiclab/internal/sim"
	"quiclab/internal/stats"
	"quiclab/internal/tcp"
	"quiclab/internal/trace"
	"quiclab/internal/web"
)

// FairFlow is one competing flow's outcome in a fairness experiment
// (§5.1, Fig 4/5, Table 4).
type FairFlow struct {
	Name       string
	Proto      Proto
	CC         string         // registry algorithm ("" = calibrated default)
	Throughput float64        // average Mbps over the measurement window
	Series     []float64      // per-second Mbps (Fig 4 timelines)
	Cwnd       []trace.Sample // one sample per simulated second (Fig 5)
}

// FairArm describes one competing flow of an N-way fairness run: which
// transport it rides and, optionally, which registry congestion
// controller it uses instead of the transport's calibrated default.
type FairArm struct {
	Proto Proto
	CC    string // registry algorithm name ("" = calibrated default)
	Label string // display name ("" = auto: "QUIC 1", "TCP 2", ...)
}

// FairnessSpec configures a fairness run.
type FairnessSpec struct {
	Seed       int64
	RateMbps   float64
	RTT        time.Duration
	QueueBytes int // the paper used 30 KB
	Duration   time.Duration
	// Arms lists the N competitors, each a (transport, CC algorithm)
	// pair: ProtoArms for the paper's calibrated stacks, registry names
	// for the CC tournament.
	Arms []FairArm
	// Connections is QUIC's N-connection emulation (0 = QUIC 34's
	// default of 2; the paper also tested N=1).
	Connections int
}

// ProtoArms lists one arm per protocol, each with its transport's
// calibrated congestion control: Table 4's "QUIC vs TCPx2" is
// ProtoArms(QUIC, TCP, TCP).
func ProtoArms(ps ...Proto) []FairArm {
	arms := make([]FairArm, len(ps))
	for i, p := range ps {
		arms[i] = FairArm{Proto: p}
	}
	return arms
}

// RunFairness runs the given flows over one shared bottleneck and
// reports per-flow throughput. All flows download continuously for the
// whole duration; throughput is averaged after a 2 s warmup.
func RunFairness(spec FairnessSpec) []FairFlow {
	s := sim.New(spec.Seed)
	nw := netem.NewNetwork(s)
	rtt := spec.RTT
	if rtt == 0 {
		rtt = DefaultRTT
	}
	cfg := netem.Config{
		RateBps:    int64(spec.RateMbps * 1e6),
		Delay:      rtt / 2,
		QueueBytes: spec.QueueBytes,
	}
	down := netem.NewLink(s, cfg) // shared bottleneck (download direction)
	upCfg := cfg
	upCfg.QueueBytes = 1 << 20 // acks don't contend in the model
	up := netem.NewLink(s, upCfg)

	objectSize := int(spec.RateMbps*1e6/8) * int(spec.Duration/time.Second) * 2

	flows := make([]FairFlow, len(spec.Arms))
	received := make([]int64, len(spec.Arms))
	tracers := make([]*trace.Recorder, len(spec.Arms))
	quicN, tcpN := 0, 0
	for i, arm := range spec.Arms {
		cli := netem.Addr(10 + i)
		srv := netem.Addr(100 + i)
		nw.SetPath(srv, cli, down)
		nw.SetPath(cli, srv, up)
		tracers[i] = trace.New()
		// Flows start within a ~1s window of each other (the paper's
		// scripted transfers were not atomically synchronised either);
		// this both de-synchronises slow starts and provides honest
		// run-to-run variance for the Table 4 std columns.
		startAt := time.Duration(s.Rand().Int63n(int64(time.Second)))
		switch arm.Proto {
		case QUIC:
			quicN++
			name := arm.Label
			if name == "" {
				name = fmt.Sprintf("QUIC %d", quicN)
			}
			flows[i] = FairFlow{Name: name, Proto: QUIC, CC: arm.CC}
			qcfg := (Scenario{Connections: spec.Connections, CCAlgo: arm.CC}).quicConfig(tracers[i], nil)
			web.StartQUICServer(nw, srv, qcfg, objectSize)
			f := web.NewQUICFetcher(nw, cli, (Scenario{}).quicConfig(nil, nil), srv)
			rcv := &received[i]
			s.Schedule(startAt, func() { startQUICBulk(f, rcv) })
		case TCP:
			tcpN++
			name := arm.Label
			if name == "" {
				name = fmt.Sprintf("TCP %d", tcpN)
			}
			flows[i] = FairFlow{Name: name, Proto: TCP, CC: arm.CC}
			web.StartTCPServer(nw, srv, tcp.Config{Tracer: tracers[i], CCAlgo: arm.CC}, objectSize)
			f := web.NewTCPFetcher(nw, cli, tcp.Config{}, srv)
			rcv := &received[i]
			s.Schedule(startAt, func() { startTCPBulk(f, rcv) })
		}
	}

	// Per-second sampling.
	var last = make([]int64, len(flows))
	var tick func()
	tick = func() {
		now := s.Now()
		if now > spec.Duration {
			return
		}
		for i := range flows {
			delta := received[i] - last[i]
			last[i] = received[i]
			flows[i].Series = append(flows[i].Series, float64(delta*8)/1e6)
		}
		s.Schedule(time.Second, tick)
	}
	s.Schedule(time.Second, tick)

	s.RunUntil(spec.Duration)

	for i := range flows {
		// Average after a 3s warmup (all flows started by then).
		if len(flows[i].Series) > 3 {
			flows[i].Throughput = stats.Mean(flows[i].Series[3:])
		}
		flows[i].Cwnd = tracers[i].Cwnd
	}
	return flows
}

// startQUICBulk begins an endless download counting received bytes.
func startQUICBulk(f *web.QUICFetcher, received *int64) {
	conn := f.EP.Dial(f.Server)
	conn.OnConnected(func() {
		st, err := conn.OpenStream()
		if err != nil {
			return
		}
		st.OnData = func(delta int, done bool) { *received += int64(delta) }
		st.Write(web.RequestSize, true)
	})
}

// startTCPBulk begins an endless download counting received bytes.
func startTCPBulk(f *web.TCPFetcher, received *int64) {
	conn := f.EP.Dial(f.Server)
	conn.OnData = func(delta int) { *received += int64(delta) }
	conn.OnConnected(func() { conn.Write(web.TLSBytes(web.RequestSize)) })
}

// FairnessRow is one flow's mean (std) throughput over a fairness
// scenario's runs — one line of the paper's Table 4.
type FairnessRow struct {
	Scenario string
	Flow     string
	Mean     float64
	Std      float64
}

// fairPayload is a fairness cell's value: per-flow names and average
// throughputs.
type fairPayload struct {
	Names []string  `json:"names"`
	Tput  []float64 `json:"tput"`
}

// FairnessScenario is one row-group of a fairness table: a label and
// the N arms competing on its shared bottleneck. Zero-valued network
// knobs select the paper's Table 4 conditions (5 Mbps, 36 ms, 30 KB).
type FairnessScenario struct {
	Name       string
	Arms       []FairArm
	RateMbps   float64       // 0 = 5
	RTT        time.Duration // 0 = DefaultRTT
	QueueBytes int           // 0 = 30 KB
}

// RunFairnessScenarios runs an N-arm fairness table on the matrix
// engine: each (scenario, run) pair is one cell, so the sweep
// parallelises across o.Parallelism workers while the returned rows
// stay identical at any worker count.
func RunFairnessScenarios(o Options, matrixName string, runs int, dur time.Duration, scenarios []FairnessScenario) []FairnessRow {
	o = o.withDefaults()
	m := NewMatrix(matrixName, o)
	var rows []FairnessRow
	for _, sce := range scenarios {
		spec := FairnessSpec{
			RateMbps:   sce.RateMbps,
			RTT:        sce.RTT,
			QueueBytes: sce.QueueBytes,
			Arms:       sce.Arms,
			Duration:   dur,
		}
		if spec.RateMbps == 0 {
			spec.RateMbps = 5
		}
		if spec.QueueBytes == 0 {
			spec.QueueBytes = 30 << 10
		}
		// A restored payload for another arm count is rejected (the cell
		// re-runs); the zero payload of a cell another shard owns is not
		// read at all.
		fits := func(p fairPayload) error {
			if len(p.Tput) != len(sce.Arms) || len(p.Names) != len(sce.Arms) {
				return fmt.Errorf("fairness payload has %d flows, want %d", len(p.Tput), len(sce.Arms))
			}
			return nil
		}
		outs := make([]fairPayload, runs)
		sci := m.NextScenario()
		for r := range outs {
			addCell(m, Cell{Scenario: sci, Round: r}, &outs[r], fits,
				func(seed int64, _ *tbPool) (fairPayload, *Result) {
					spec := spec
					spec.Seed = seed
					flows := RunFairness(spec)
					p := fairPayload{
						Names: make([]string, len(flows)),
						Tput:  make([]float64, len(flows)),
					}
					for i, fl := range flows {
						p.Names[i], p.Tput[i] = fl.Name, fl.Throughput
					}
					return p, nil
				})
		}
		m.Defer(func() {
			for i := range sce.Arms {
				row := FairnessRow{Scenario: sce.Name}
				samples := make([]float64, runs)
				for r, p := range outs {
					if fits(p) != nil {
						continue
					}
					samples[r] = p.Tput[i]
					if r == 0 {
						row.Flow = p.Names[i]
					}
				}
				row.Mean, row.Std = stats.Mean(samples), stats.StdDev(samples)
				rows = append(rows, row)
			}
		})
	}
	m.Run()
	return rows
}
