package cc

import (
	"math"
	"time"

	"quiclab/internal/metrics"
	"quiclab/internal/trace"
)

// unlimited is the ssthresh (and MACW) sentinel for "no limit yet".
const unlimited = math.MaxInt64 / 4

// reno implements Controller with classic NewReno AIMD: slow start to
// ssthresh, one-MSS-per-RTT additive increase in congestion avoidance,
// halving on loss with a fast-recovery episode per loss event, and a
// collapse to the minimum window on RTO. It is the tournament's
// baseline — the behaviour every later algorithm claims to improve on.
//
// It is also the loss-based core Vegas and Cubic embed: the window and
// threshold, srtt, the recovery/RTO/TLP episodes, the halve-to-floor
// responses, pacing and the one report every ack and loss emits. Go
// embedding does not dispatch: a reno method calls reno's methods, never
// an embedder's, so what differs per algorithm and is read here (the
// congestion-avoidance pacing factor) is a field the constructor sets.
type reno struct {
	stateTracker
	mss int

	cwnd     int // bytes
	ssthresh int // bytes; unlimited until the first loss

	srtt time.Duration

	lastSentIndex uint64

	// Fractional congestion-avoidance growth: acked bytes accumulate
	// until one full MSS of increase is earned.
	caAcked int

	inRecovery  bool
	recoveryEnd uint64
	inRTO       bool
	inTLP       bool

	appLimited bool

	// caGain paces congestion avoidance at caGain x the cwnd rate (slow
	// start paces at 2x); 0 turns pacing off.
	caGain float64

	// Time-series (nil when metrics are disabled).
	mCwnd     *metrics.Series
	mSSThresh *metrics.Series
	mPacing   *metrics.Series
}

// newReno returns the core with a cwnd-byte initial window and no
// threshold. The tracer may be nil.
func newReno(mss, cwnd int, caGain float64, tracer *trace.Recorder) reno {
	return reno{
		stateTracker: stateTracker{tracer: tracer},
		mss:          mss,
		cwnd:         cwnd,
		ssthresh:     unlimited,
		caGain:       caGain,
		mCwnd:        tracer.Series(metrics.SeriesCwnd, metrics.KindBytes),
		mSSThresh:    tracer.Series(metrics.SeriesSSThresh, metrics.KindBytes),
		mPacing:      tracer.Series(metrics.SeriesPacingRate, metrics.KindRate),
	}
}

// report samples the window for the trace and records the three
// series. ssthresh is recorded as 0 while still at the unlimited
// sentinel, so plots read "no threshold yet" instead of a 2^61 spike.
func (r *reno) report(now time.Duration) {
	r.tracer.SampleCwnd(now, float64(r.cwnd))
	r.mCwnd.Record(now, float64(r.cwnd))
	ss := r.ssthresh
	if ss >= unlimited {
		ss = 0
	}
	r.mSSThresh.Record(now, float64(ss))
	r.mPacing.Record(now, r.PacingRate())
}

// settle shows the growth regime unless a loss episode is open.
func (r *reno) settle(now time.Duration) {
	if r.inRecovery || r.inRTO || r.inTLP {
		return
	}
	switch {
	case r.appLimited:
		r.set(now, StateApplicationLimited)
	case r.cwnd < r.ssthresh:
		r.set(now, StateSlowStart)
	default:
		r.set(now, StateCongestionAvoidance)
	}
}

// onAck folds an ack into srtt and ends the episodes it closes: a TLP
// or an RTO on any ack, recovery on the first ack of data sent after it
// began. It reports whether an episode ended.
func (r *reno) onAck(sendIndex uint64, rtt time.Duration) (ended bool) {
	if rtt > 0 {
		if r.srtt == 0 {
			r.srtt = rtt
		} else {
			r.srtt = (r.srtt*7 + rtt) / 8
		}
	}
	ended = r.inTLP || r.inRTO
	r.inTLP, r.inRTO = false, false
	if r.inRecovery && sendIndex > r.recoveryEnd {
		r.inRecovery = false
		ended = true
	}
	return ended
}

// OnPacketSent implements Controller.
func (r *reno) OnPacketSent(now time.Duration, sendIndex uint64, bytes int) {
	if r.state == StateInit {
		r.set(now, StateSlowStart)
	}
	r.lastSentIndex = sendIndex
}

// OnAck implements Controller. Acks for pre-loss data neither grow nor
// shrink the window, and an app-limited sender does not grow a window
// it is not using.
func (r *reno) OnAck(now time.Duration, sendIndex uint64, bytes int, rtt time.Duration, inFlight int) {
	r.onAck(sendIndex, rtt)
	if !r.inRecovery && !r.appLimited {
		if r.cwnd < r.ssthresh {
			r.cwnd += bytes
		} else {
			// Additive increase: one MSS per cwnd's worth of acked bytes.
			r.caAcked += bytes
			if r.caAcked >= r.cwnd {
				r.caAcked -= r.cwnd
				r.cwnd += r.mss
			}
		}
	}
	r.settle(now)
	r.report(now)
}

// newLossEpisode reports whether a loss opens a new recovery episode (a
// loss of data sent before the current one began does not).
func (r *reno) newLossEpisode(sendIndex uint64) bool {
	return !r.inRecovery || sendIndex > r.recoveryEnd
}

// enterRecovery cuts ssthresh and cwnd to cut bytes, floored at the
// minimum window, and opens a recovery episode that the first ack of
// data sent from here on closes.
func (r *reno) enterRecovery(now time.Duration, cut int) {
	cut = max(cut, minCwndPkts*r.mss)
	r.ssthresh, r.cwnd = cut, cut
	r.caAcked = 0
	r.inRecovery = true
	r.recoveryEnd = r.lastSentIndex
	r.set(now, StateRecovery)
	r.report(now)
}

// OnLoss implements Controller: halve the window once per episode.
func (r *reno) OnLoss(now time.Duration, sendIndex uint64, bytes int, inFlight int) {
	if r.newLossEpisode(sendIndex) {
		r.enterRecovery(now, r.cwnd/2)
	}
}

// OnRTO implements Controller: ssthresh to half the window, the window
// to the minimum.
func (r *reno) OnRTO(now time.Duration) {
	r.ssthresh = max(r.cwnd/2, minCwndPkts*r.mss)
	r.cwnd = minCwndPkts * r.mss
	r.caAcked = 0
	r.inRTO = true
	r.inRecovery = false
	r.set(now, StateRTO)
	r.report(now)
}

// OnTLP implements Controller.
func (r *reno) OnTLP(now time.Duration) {
	if r.inRTO || r.inRecovery {
		return
	}
	r.inTLP = true
	r.set(now, StateTLP)
}

// SetAppLimited implements Controller.
func (r *reno) SetAppLimited(now time.Duration, why Limit) { r.appLimited = why != LimitNone }

// CanSend implements Controller.
func (r *reno) CanSend(inFlight int) bool { return inFlight+r.mss <= r.cwnd }

// Window implements Controller.
func (r *reno) Window() int { return r.cwnd }

// PacingRate implements Controller: 2x the cwnd rate in slow start,
// caGain x in congestion avoidance, 0 with pacing off.
func (r *reno) PacingRate() float64 {
	if r.caGain == 0 {
		return 0
	}
	srtt := r.srtt
	if srtt == 0 {
		srtt = initialRTTGuess
	}
	factor := r.caGain
	if r.cwnd < r.ssthresh {
		factor = 2.0
	}
	return factor * float64(r.cwnd) / srtt.Seconds()
}

// State implements Controller.
func (r *reno) State() State { return r.state }

// SSThresh returns the slow-start threshold in bytes (for tests and
// root-cause inspection).
func (r *reno) SSThresh() int { return r.ssthresh }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (r *reno) SRTT() time.Duration { return r.srtt }

func init() {
	// Like Cubic's pacer: 1.25x the cwnd rate in congestion avoidance.
	Register("reno", func(cfg Config) Controller {
		r := newReno(cfg.MSS, 10*cfg.MSS, 1.25, cfg.Tracer) // RFC 6928 initial window
		return &r
	})
}
