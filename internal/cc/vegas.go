package cc

import (
	"time"

	"quiclab/internal/trace"
)

// Vegas tuning (Brakmo & Peterson's values, in packets of queue
// occupancy at the bottleneck).
const (
	vegasAlphaPkts = 2 // grow below this backlog
	vegasBetaPkts  = 4 // shrink above this backlog
	vegasGammaPkts = 1 // leave slow start above this backlog
)

// vegas implements Controller with TCP Vegas: a delay-based algorithm
// that estimates its own queue backlog from the gap between expected
// (cwnd/baseRTT) and actual (cwnd/RTT) rates and steers the window to
// keep alpha..beta packets queued at the bottleneck. The tournament's
// delay-based arm: against loss-based competitors it is expected to
// starve — the classic Vegas/Reno coexistence result. It keeps Reno's
// loss response: delay steering avoids most losses, but a real loss
// still halves the window.
type vegas struct {
	reno

	baseRTT time.Duration // min RTT ever observed (propagation estimate)

	// Per-round RTT bookkeeping: decisions are made once per RTT from
	// that round's minimum sample, like the Linux implementation.
	roundEnd     uint64
	roundMinRTT  time.Duration
	roundSamples int
	ssGrow       bool // slow start doubles every other round
}

// newVegas returns a Vegas controller. The tracer may be nil. It paces
// at the cwnd rate with a mild 1.1x boost in congestion avoidance:
// Vegas's whole point is not to burst into queues.
func newVegas(mss int, tracer *trace.Recorder) *vegas {
	return &vegas{
		reno:        newReno(mss, 10*mss, 1.1, tracer),
		baseRTT:     -1,
		roundMinRTT: -1,
	}
}

// backlogPkts estimates the packets this flow has queued at the
// bottleneck: diff = cwnd * (rtt - baseRTT) / rtt, in packets.
func (v *vegas) backlogPkts(rtt time.Duration) float64 {
	if v.baseRTT <= 0 || rtt <= 0 {
		return 0
	}
	cwndPkts := float64(v.cwnd) / float64(v.mss)
	return cwndPkts * float64(rtt-v.baseRTT) / float64(rtt)
}

// OnAck implements Controller.
func (v *vegas) OnAck(now time.Duration, sendIndex uint64, bytes int, rtt time.Duration, inFlight int) {
	if rtt > 0 {
		if v.baseRTT < 0 || rtt < v.baseRTT {
			v.baseRTT = rtt
		}
		if v.roundMinRTT < 0 || rtt < v.roundMinRTT {
			v.roundMinRTT = rtt
		}
		v.roundSamples++
	}
	v.onAck(sendIndex, rtt)
	if !v.inRecovery && sendIndex > v.roundEnd {
		// Round boundary: one Vegas decision per RTT.
		if !v.appLimited {
			v.onRoundEnd()
		}
		v.roundEnd = v.lastSentIndex
		v.roundMinRTT = -1
		v.roundSamples = 0
	}
	v.settle(now)
	v.report(now)
}

// onRoundEnd applies the per-RTT Vegas window update from the round's
// minimum RTT sample.
func (v *vegas) onRoundEnd() {
	rtt := v.roundMinRTT
	if rtt <= 0 || v.roundSamples < 2 {
		// Too few samples to judge the backlog; in slow start keep
		// growing rather than stalling on a quiet round.
		if v.cwnd < v.ssthresh {
			v.growSlowStart()
		}
		return
	}
	diff := v.backlogPkts(rtt)
	if v.cwnd < v.ssthresh {
		if diff > vegasGammaPkts {
			// Queue building: leave slow start right here.
			v.ssthresh = v.cwnd
			return
		}
		v.growSlowStart()
		return
	}
	switch {
	case diff < vegasAlphaPkts:
		v.cwnd += v.mss
	case diff > vegasBetaPkts:
		v.cwnd = max(v.cwnd-v.mss, minCwndPkts*v.mss)
	}
}

// growSlowStart doubles the window every other round (Vegas's cautious
// slow start probes the path between doublings).
func (v *vegas) growSlowStart() {
	v.ssGrow = !v.ssGrow
	if v.ssGrow {
		v.cwnd = min(2*v.cwnd, v.ssthresh)
	}
}

func init() {
	Register("vegas", func(cfg Config) Controller {
		return newVegas(cfg.MSS, cfg.Tracer)
	})
}
