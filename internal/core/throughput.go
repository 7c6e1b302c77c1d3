package core

import (
	"time"

	"quiclab/internal/stats"
	"quiclab/internal/tcp"
	"quiclab/internal/trace"
	"quiclab/internal/web"
)

// ThroughputTrace is one bulk download's time series.
type ThroughputTrace struct {
	// Series is per-second goodput in Mbps.
	Series []float64
	// AvgMbps is the mean over the transfer (excluding the first second).
	AvgMbps float64
	// Done is when the transfer completed (0 if it never did).
	Done time.Duration
	// Cwnd is the sender's congestion window, one sample per simulated
	// second (Fig 9; trace.Recorder.Cwnd).
	Cwnd []trace.Sample
}

// RunThroughput downloads the scenario's page (as a single bulk object:
// Page.ObjectSize with NumObjects=1 is typical) and records per-second
// goodput and the server's cwnd evolution — the machinery behind Fig 9
// (cwnd under loss) and Fig 11 (variable bandwidth).
func (sc Scenario) RunThroughput(proto Proto, seed int64) ThroughputTrace {
	tb := sc.acquire(proto, seed, nil)
	tracer := tb.tracer
	out := ThroughputTrace{}

	var received int64
	var done time.Duration

	switch proto {
	case QUIC:
		web.StartQUICServer(tb.net, serverAddr, sc.quicConfig(tracer, nil), sc.Page.ObjectSize)
		cliCfg := sc.Device.ApplyQUIC(sc.quicConfig(nil, nil))
		f := web.NewQUICFetcher(tb.net, clientAddr, cliCfg, serverAddr)
		conn := f.EP.Dial(serverAddr)
		conn.OnConnected(func() {
			st, err := conn.OpenStream()
			if err != nil {
				return
			}
			st.OnData = func(delta int, fin bool) {
				received += int64(delta)
				if fin {
					done = tb.sim.Now()
					tb.sim.Stop()
				}
			}
			st.Write(web.RequestSize, true)
		})
	case TCP:
		web.StartTCPServer(tb.net, serverAddr, sc.tcpServerConfig(tracer, nil), sc.Page.ObjectSize)
		cliCfg := sc.Device.ApplyTCP(tcp.Config{})
		f := web.NewTCPFetcher(tb.net, clientAddr, cliCfg, serverAddr)
		conn := f.EP.Dial(serverAddr)
		need := int64(web.TLSBytes(web.ResponseHeaderSize + sc.Page.ObjectSize))
		conn.OnData = func(delta int) {
			received += int64(delta)
			if received >= need && done == 0 {
				done = tb.sim.Now()
				tb.sim.Stop()
			}
		}
		conn.OnConnected(func() { conn.Write(web.TLSBytes(web.RequestSize)) })
	}

	var last int64
	var tick func()
	tick = func() {
		out.Series = append(out.Series, float64(received-last)*8/1e6)
		last = received
		if done == 0 {
			tb.sim.Schedule(time.Second, tick)
		}
	}
	tb.sim.Schedule(time.Second, tick)

	tb.sim.RunUntil(sc.deadline())
	if tb.varier != nil {
		tb.varier.Stop()
	}
	out.Done = done
	out.Cwnd = tracer.Cwnd
	if len(out.Series) > 1 {
		out.AvgMbps = stats.Mean(out.Series[1:])
	}
	return out
}
