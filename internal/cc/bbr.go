package cc

import (
	"strings"
	"time"

	"quiclab/internal/metrics"
	"quiclab/internal/trace"
)

// BBR states. The paper instrumented gQUIC's experimental BBR only far
// enough to infer its state machine (Fig 3b); this implementation is a
// functional, simplified BBR sufficient to drive those states. Startup,
// Drain and ProbeRTT are BBR2's too, and every ProbeBW phase of either
// is named with the ProbeBW prefix.
const (
	bbrStartup  = "Startup"
	bbrDrain    = "Drain"
	bbrProbeBW  = "ProbeBW"
	bbrProbeRTT = "ProbeRTT"
	bbrRecovery = "Recovery"
)

const (
	bbrHighGain       = 2.885 // 2/ln(2)
	bbrDrainGain      = 1 / 2.885
	bbrCwndGain       = 2.0
	bbrBtlBwWindow    = 10 // rounds
	bbrMinRTTWindow   = 10 * time.Second
	bbrProbeRTTLength = 200 * time.Millisecond
	bbrStartupRounds  = 3 // rounds without 25% growth to exit startup
)

var bbrPacingGainCycle = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// bwModel is the bandwidth model BBR and BBR2 share: per-ack
// delivery-rate samples into a per-round max filter, a min-RTT filter
// whose 10 s expiry sends a ProbeBW phase to ProbeRTT, round counting
// and the startup plateau. Each controller embeds it and keeps its own
// state machine. Go embedding does not dispatch, so the window — the
// one thing the two compute differently — is passed in where the model
// needs it.
type bwModel struct {
	mss    int
	tracer *trace.Recorder
	state  string

	// Delivery-rate sampling.
	delivered     int                         // total bytes delivered
	sentDelivered map[uint64]deliverySnapshot // per send index

	// Round counting.
	roundCount    int
	roundEnd      uint64
	lastSentIndex uint64

	// Filters.
	btlBw      [bbrBtlBwWindow]float64 // per-round max delivery rate
	minRTT     time.Duration
	minRTTSeen time.Duration // when minRTT was recorded

	// Startup plateau detection.
	fullBwCount int
	fullBw      float64
	filled      bool

	probeRTTStart time.Duration
	pacingGain    float64

	// Time-series (nil when metrics are disabled).
	mCwnd   *metrics.Series
	mPacing *metrics.Series
}

type deliverySnapshot struct {
	delivered int
	at        time.Duration
}

// newBWModel returns a model in Startup, logging the Init→Startup
// transition. The tracer may be nil.
func newBWModel(mss int, tracer *trace.Recorder) bwModel {
	m := bwModel{
		mss:           mss,
		tracer:        tracer,
		state:         bbrStartup,
		pacingGain:    bbrHighGain,
		sentDelivered: make(map[uint64]deliverySnapshot),
		minRTT:        -1,
		mCwnd:         tracer.Series(metrics.SeriesCwnd, metrics.KindBytes),
		mPacing:       tracer.Series(metrics.SeriesPacingRate, metrics.KindRate),
	}
	tracer.Transition(0, "Init", bbrStartup)
	return m
}

func (m *bwModel) setState(now time.Duration, s string) {
	if s == m.state {
		return
	}
	m.tracer.Transition(now, m.state, s)
	m.state = s
}

func (m *bwModel) inProbeBW() bool { return strings.HasPrefix(m.state, bbrProbeBW) }

// bandwidth returns the windowed-max bottleneck bandwidth estimate
// (bytes/sec).
func (m *bwModel) bandwidth() float64 {
	var bw float64
	for _, v := range m.btlBw {
		bw = max(bw, v)
	}
	return bw
}

func (m *bwModel) bdp() float64 {
	rtt := m.minRTT
	if rtt <= 0 {
		rtt = initialRTTGuess
	}
	return m.bandwidth() * rtt.Seconds()
}

// bdpWindow is the model's window before phase bounds: cwnd_gain x BDP,
// or in Startup high_gain x BDP but at least the 32-packet initial
// window while no bandwidth estimate exists.
func (m *bwModel) bdpWindow() int {
	if m.state == bbrStartup {
		return max(int(bbrHighGain*m.bdp()), 32*m.mss)
	}
	return int(bbrCwndGain * m.bdp())
}

// floorWindow floors w at 4 packets, and pins it there in ProbeRTT.
func (m *bwModel) floorWindow(w int) int {
	if m.state == bbrProbeRTT {
		return 4 * m.mss
	}
	return max(w, 4*m.mss)
}

// report samples the window for the trace and records the series.
func (m *bwModel) report(now time.Duration, window int) {
	m.tracer.SampleCwnd(now, float64(window))
	m.mCwnd.Record(now, float64(window))
	m.mPacing.Record(now, m.PacingRate())
}

// OnPacketSent implements Controller.
func (m *bwModel) OnPacketSent(now time.Duration, sendIndex uint64, bytes int) {
	m.lastSentIndex = sendIndex
	m.sentDelivered[sendIndex] = deliverySnapshot{delivered: m.delivered, at: now}
}

// onAck folds an ack into the model and reports whether it began a new
// round.
func (m *bwModel) onAck(now time.Duration, sendIndex uint64, bytes int, rtt time.Duration) bool {
	m.delivered += bytes
	// Delivery-rate sample relative to the snapshot at send time.
	if snap, ok := m.sentDelivered[sendIndex]; ok {
		delete(m.sentDelivered, sendIndex)
		if elapsed := now - snap.at; elapsed > 0 {
			rate := float64(m.delivered-snap.delivered) / elapsed.Seconds()
			slot := &m.btlBw[m.roundCount%bbrBtlBwWindow]
			*slot = max(*slot, rate)
		}
	}
	if rtt > 0 && (m.minRTT < 0 || rtt < m.minRTT || now-m.minRTTSeen > bbrMinRTTWindow) {
		expired := m.minRTT >= 0 && now-m.minRTTSeen > bbrMinRTTWindow && rtt > m.minRTT
		m.minRTT = rtt
		m.minRTTSeen = now
		if expired && m.inProbeBW() {
			m.setState(now, bbrProbeRTT)
			m.probeRTTStart = now
		}
	}
	if sendIndex <= m.roundEnd {
		return false
	}
	m.roundCount++
	m.btlBw[m.roundCount%bbrBtlBwWindow] = 0
	m.roundEnd = m.lastSentIndex
	if m.state == bbrStartup {
		if bw := m.bandwidth(); bw > m.fullBw*1.25 {
			m.fullBw = bw
			m.fullBwCount = 0
		} else {
			m.fullBwCount++
			if m.fullBwCount >= bbrStartupRounds {
				m.filled = true
			}
		}
	}
	return true
}

// onLoss forgets the lost packet's delivery snapshot.
func (m *bwModel) onLoss(sendIndex uint64) { delete(m.sentDelivered, sendIndex) }

// OnTLP implements Controller.
func (m *bwModel) OnTLP(now time.Duration) {}

// SetAppLimited implements Controller. The model takes every sample at
// face value.
func (m *bwModel) SetAppLimited(now time.Duration, why Limit) {}

// PacingRate implements Controller.
func (m *bwModel) PacingRate() float64 {
	bw := m.bandwidth()
	if bw == 0 {
		// No estimate yet: pace the initial window over the RTT guess.
		return bbrHighGain * float64(32*m.mss) / initialRTTGuess.Seconds()
	}
	return m.pacingGain * bw
}

// State implements Controller. BBR's states don't map onto Table 3; the
// closest Table 3 regime is reported for the transports' bookkeeping.
func (m *bwModel) State() State {
	switch m.state {
	case bbrRecovery:
		return StateRecovery
	case bbrStartup:
		return StateSlowStart
	default:
		return StateCongestionAvoidance
	}
}

// bbr is a simplified BBR controller: it paces at pacingGain x btlBw,
// cycling the gain through bbrPacingGainCycle in ProbeBW, and bounds
// the window at cwnd_gain x BDP.
type bbr struct {
	bwModel

	// ProbeBW gain cycling.
	cycleIndex int
	cycleStart time.Duration
}

func newBBR(mss int, tracer *trace.Recorder) *bbr {
	return &bbr{bwModel: newBWModel(mss, tracer)}
}

// OnAck implements Controller.
func (b *bbr) OnAck(now time.Duration, sendIndex uint64, bytes int, rtt time.Duration, inFlight int) {
	b.onAck(now, sendIndex, bytes, rtt)
	switch b.state {
	case bbrStartup:
		if b.filled {
			b.setState(now, bbrDrain)
			b.pacingGain = bbrDrainGain
		}
	case bbrDrain:
		// Leave drain once in-flight has come down to the BDP; we
		// approximate with one round in drain.
		if float64(b.delivered) > 0 && now-b.minRTTSeen >= 0 {
			b.setState(now, bbrProbeBW)
			b.cycleIndex = 0
			b.cycleStart = now
			b.pacingGain = bbrPacingGainCycle[0]
		}
	case bbrProbeBW:
		rtt := b.minRTT
		if rtt <= 0 {
			rtt = initialRTTGuess
		}
		if now-b.cycleStart > rtt {
			b.cycleIndex = (b.cycleIndex + 1) % len(bbrPacingGainCycle)
			b.cycleStart = now
			b.pacingGain = bbrPacingGainCycle[b.cycleIndex]
		}
	case bbrProbeRTT:
		if now-b.probeRTTStart > bbrProbeRTTLength {
			b.setState(now, bbrProbeBW)
			b.cycleIndex = 0
			b.cycleStart = now
			b.pacingGain = 1
		}
	case bbrRecovery:
		// Exit recovery after one round (simplified).
		b.setState(now, bbrProbeBW)
		b.pacingGain = 1
	}
	b.report(now, b.Window())
}

// OnLoss implements Controller.
func (b *bbr) OnLoss(now time.Duration, sendIndex uint64, bytes int, inFlight int) {
	b.onLoss(sendIndex)
	if b.state == bbrProbeBW || b.state == bbrStartup {
		b.setState(now, bbrRecovery)
	}
}

// OnRTO implements Controller. ProbeRTT's window is already the floor
// and Recovery's is not, so an RTO there stays in ProbeRTT.
func (b *bbr) OnRTO(now time.Duration) {
	if b.state != bbrProbeRTT {
		b.setState(now, bbrRecovery)
	}
}

// CanSend implements Controller.
func (b *bbr) CanSend(inFlight int) bool { return inFlight+b.mss <= b.Window() }

// Window implements Controller: cwnd_gain x BDP (high_gain in Startup),
// floored at 4 packets and pinned there during ProbeRTT.
func (b *bbr) Window() int { return b.floorWindow(b.bdpWindow()) }
