// Package cc implements the congestion controllers under study: Cubic
// with the gQUIC feature set (hybrid slow start, PRR, pacing, N-connection
// emulation, maximum-allowed congestion window), Reno and Vegas on the
// same loss-based core, and simplified BBR and BBRv2 on one bandwidth
// model. New builds any of them by name in its standard configuration;
// NewCubic builds the calibrated gQUIC and Linux Cubics.
//
// Controllers are pure state machines: every input carries an explicit
// timestamp, so the same code runs under virtual or real time. The CC
// states and their names follow Table 3 of the paper; every transition is
// reported to a trace.Recorder, which is what the state-machine inference
// (Fig 3, Fig 13) consumes.
package cc

import (
	"time"

	"quiclab/internal/trace"
)

// State is a congestion-control state (paper Table 3).
type State int

// Cubic congestion-control states, as named in the paper's Table 3 and
// Fig 3a.
const (
	StateInit State = iota
	StateSlowStart
	StateCongestionAvoidance
	StateCAMaxed
	StateApplicationLimited
	StateRecovery
	StateRTO
	StateTLP
)

// String returns the state name used in the paper's figures.
func (s State) String() string {
	switch s {
	case StateInit:
		return "Init"
	case StateSlowStart:
		return "SlowStart"
	case StateCongestionAvoidance:
		return "CongestionAvoidance"
	case StateCAMaxed:
		return "CongestionAvoidanceMaxed"
	case StateApplicationLimited:
		return "ApplicationLimited"
	case StateRecovery:
		return "Recovery"
	case StateRTO:
		return "RetransmissionTimeout"
	case StateTLP:
		return "TailLossProbe"
	}
	return "Unknown"
}

// Limit says why a sender is not currently cwnd-bound, for
// SetAppLimited. Distinguishing flow-control blocking from a genuinely
// idle application matters to bandwidth-sampling controllers (an
// app-limited sample underestimates the path; a flow-blocked one says
// nothing about it) and to stall attribution.
type Limit uint8

const (
	// LimitNone: the sender has data and is limited by cwnd (or not
	// limited at all).
	LimitNone Limit = iota
	// LimitApp: the application has no data to send.
	LimitApp
	// LimitFlow: data is pending but flow control blocks it.
	LimitFlow
)

// Controller is the interface both transports drive. sendIndex is a
// monotonically increasing counter over transmissions (retransmissions
// get fresh indexes); it gives the controller round and recovery-epoch
// boundaries without tying it to either transport's sequence space.
type Controller interface {
	// OnPacketSent reports a transmission of bytes payload.
	OnPacketSent(now time.Duration, sendIndex uint64, bytes int)
	// OnAck reports a newly acknowledged transmission and the RTT sample
	// it produced (0 if the sample is invalid, e.g. a Karn-excluded TCP
	// retransmission). inFlight is bytes outstanding after the ack.
	OnAck(now time.Duration, sendIndex uint64, bytes int, rtt time.Duration, inFlight int)
	// OnLoss reports a transmission declared lost. inFlight is bytes
	// outstanding after removing the lost packet.
	OnLoss(now time.Duration, sendIndex uint64, bytes int, inFlight int)
	// OnRTO reports a retransmission-timeout fire.
	OnRTO(now time.Duration)
	// OnTLP reports that a tail-loss-probe was sent.
	OnTLP(now time.Duration)
	// SetAppLimited reports why the sender is not cwnd-bound right
	// now: LimitApp (no data), LimitFlow (flow-control blocked), or
	// LimitNone (cwnd-bound / actively sending).
	SetAppLimited(now time.Duration, why Limit)
	// CanSend reports whether another packet may be sent with inFlight
	// bytes currently outstanding.
	CanSend(inFlight int) bool
	// Window returns the congestion window in bytes.
	Window() int
	// PacingRate returns the target send rate in bytes/sec, or 0 when
	// pacing is disabled.
	PacingRate() float64
	// State returns the current CC state.
	State() State
}

// stateTracker centralises transition logging for the loss-based
// controllers.
type stateTracker struct {
	state  State
	tracer *trace.Recorder
}

func (st *stateTracker) set(now time.Duration, s State) {
	if s == st.state {
		return
	}
	// Recovery entries/exits get first-class events in the qlog stream so
	// loss-episode analyses need not re-derive them from transitions.
	if s == StateRecovery {
		st.tracer.RecoveryEnter(now)
	} else if st.state == StateRecovery {
		st.tracer.RecoveryExit(now)
	}
	st.tracer.Transition(now, st.state.String(), s.String())
	st.state = s
}
