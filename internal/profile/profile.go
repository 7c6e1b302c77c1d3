// Package profile attributes every instant of a connection's virtual
// lifetime to exactly one exclusive stall state. It is the
// root-cause layer under the PLT numbers: instead of "QUIC was 12%
// faster", a Budget says how much of the connection's life went to the
// handshake, to cwnd exhaustion, to pacing gaps, to flow-control
// blocking, to loss recovery, or to waiting on a probe timer.
//
// The profiler is passive: it never schedules events, draws random
// numbers, or perturbs the transports it observes — it only timestamps
// transitions the transports already compute. A nil *Profiler is a
// valid no-op receiver (the trace.Recorder pattern), so disabled
// profiling costs one nil check and zero allocations on the hot path.
//
// Exactness invariant: for a finished profiler, the per-state totals
// sum to the connection lifetime with zero error — virtual time is
// integer nanoseconds and every span is accounted to exactly one
// state.
package profile

import (
	"fmt"
	"time"
)

// State is an exclusive stall-attribution state. At any virtual
// instant a connection is in exactly one State.
type State uint8

const (
	// StateHandshake covers connection start until the transport
	// reports the handshake complete (0-RTT handshakes spend ~0 here).
	StateHandshake State = iota
	// StateTransfer is the healthy state: data is in flight or being
	// produced and no gate below applies.
	StateTransfer
	// StateCwndLimited means sendable data exists but the congestion
	// window is full.
	StateCwndLimited
	// StatePacingGated means the congestion window has room but the
	// pacer has pushed the next send into the future.
	StatePacingGated
	// StateFlowCtlConn means connection-level flow control blocks all
	// pending stream data.
	StateFlowCtlConn
	// StateFlowCtlStream means stream-level flow control blocks every
	// pending stream (connection credit remains).
	StateFlowCtlStream
	// StateRecovery means the congestion controller is in a loss
	// recovery epoch.
	StateRecovery
	// StateRTOWait means the connection is idle with data in flight
	// after a TLP/RTO fired, waiting on the timer ladder.
	StateRTOWait
	// StateAppLimited means nothing is in flight and the application
	// has no data queued (includes post-transfer idle time).
	StateAppLimited

	numStates
)

var stateNames = [numStates]string{
	StateHandshake:     "handshake",
	StateTransfer:      "transfer",
	StateCwndLimited:   "cwnd_limited",
	StatePacingGated:   "pacing_gated",
	StateFlowCtlConn:   "flowctl_conn",
	StateFlowCtlStream: "flowctl_stream",
	StateRecovery:      "recovery",
	StateRTOWait:       "rto_wait",
	StateAppLimited:    "app_limited",
}

// String returns the snake_case name used in budgets and reports.
func (s State) String() string {
	if s < numStates {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// NumStates is the number of exclusive attribution states.
const NumStates = int(numStates)

// StateByIndex converts a component index (as used by Budget.Component)
// back to its State.
func StateByIndex(i int) State { return State(i) }

// Budget is the finished per-connection accounting: total virtual
// nanoseconds per exclusive state, the number of state transitions,
// and the longest single non-transfer stall with its virtual
// timestamp. LifetimeNS is the connection's total accounted lifetime;
// the exactness invariant guarantees the component fields sum to it
// exactly.
type Budget struct {
	HandshakeNS     int64 `json:"handshake_ns"`
	TransferNS      int64 `json:"transfer_ns"`
	CwndLimitedNS   int64 `json:"cwnd_limited_ns"`
	PacingGatedNS   int64 `json:"pacing_gated_ns"`
	FlowCtlConnNS   int64 `json:"flowctl_conn_ns"`
	FlowCtlStreamNS int64 `json:"flowctl_stream_ns"`
	RecoveryNS      int64 `json:"recovery_ns"`
	RTOWaitNS       int64 `json:"rto_wait_ns"`
	AppLimitedNS    int64 `json:"app_limited_ns"`
	LifetimeNS      int64 `json:"lifetime_ns"`

	Transitions int `json:"transitions"`

	// Longest single contiguous stall in any one non-transfer state.
	LongestStallState string `json:"longest_stall_state,omitempty"`
	LongestStallNS    int64  `json:"longest_stall_ns,omitempty"`
	LongestStallAtNS  int64  `json:"longest_stall_at_ns,omitempty"`
}

// Component returns the ns total for state index i (0..NumStates-1),
// in State order.
func (b Budget) Component(i int) int64 {
	switch State(i) {
	case StateHandshake:
		return b.HandshakeNS
	case StateTransfer:
		return b.TransferNS
	case StateCwndLimited:
		return b.CwndLimitedNS
	case StatePacingGated:
		return b.PacingGatedNS
	case StateFlowCtlConn:
		return b.FlowCtlConnNS
	case StateFlowCtlStream:
		return b.FlowCtlStreamNS
	case StateRecovery:
		return b.RecoveryNS
	case StateRTOWait:
		return b.RTOWaitNS
	case StateAppLimited:
		return b.AppLimitedNS
	}
	return 0
}

// StallNS returns the total non-transfer, non-app-limited time: the
// portion of the lifetime spent blocked on a transport mechanism
// (cwnd, pacer, flow control, recovery, RTO ladder). Handshake time is
// reported separately and not counted here.
func (b Budget) StallNS() int64 {
	return b.CwndLimitedNS + b.PacingGatedNS + b.FlowCtlConnNS +
		b.FlowCtlStreamNS + b.RecoveryNS + b.RTOWaitNS
}

// BlockedNS returns the hard-blocked subset of StallNS: flow control,
// loss recovery, and the RTO ladder. Cwnd and pacer waits are excluded
// — every bottleneck-bound transfer accrues those in steady state, so
// they signal "bandwidth-limited", not "pathologically stalled".
// Anomaly detection keys off this subset.
func (b Budget) BlockedNS() int64 {
	return b.FlowCtlConnNS + b.FlowCtlStreamNS + b.RecoveryNS + b.RTOWaitNS
}

// Sum returns the total of all component fields. Exactness means
// Sum() == LifetimeNS for every finished Budget.
func (b Budget) Sum() int64 {
	var t int64
	for i := 0; i < NumStates; i++ {
		t += b.Component(i)
	}
	return t
}

// Profiler accumulates exclusive state spans for one connection under
// virtual time. The zero value (or a nil pointer) is a disabled no-op;
// construct enabled profilers with New.
type Profiler struct {
	cur      State
	finished bool
	curSince time.Duration
	ns       [numStates]int64

	transitions int

	longestState State
	longestNS    int64
	longestAt    int64

	// current contiguous stall (cur != StateTransfer) being extended
	stallState State
	stallStart time.Duration
	inStall    bool
}

// New returns an enabled profiler whose lifetime starts at now in
// state initial (connections start in StateHandshake).
func New(now time.Duration, initial State) *Profiler {
	p := &Profiler{cur: initial, curSince: now}
	if initial != StateTransfer {
		p.inStall = true
		p.stallState = initial
		p.stallStart = now
	}
	return p
}

// Transition records that the connection entered state s at virtual
// time now. Same-state calls are free no-ops, so hooks can reclassify
// unconditionally at every decision point. Nil-safe.
func (p *Profiler) Transition(now time.Duration, s State) {
	if p == nil || p.finished || s == p.cur {
		return
	}
	p.accumulate(now)
	p.cur = s
	p.curSince = now
	p.transitions++
	if s == StateTransfer {
		p.inStall = false
	} else if !p.inStall || p.stallState != s {
		p.inStall = true
		p.stallState = s
		p.stallStart = now
	}
}

// Finish closes the profiler's lifetime at virtual time now.
// Idempotent; later Transition calls are ignored. Nil-safe.
func (p *Profiler) Finish(now time.Duration) {
	if p == nil || p.finished {
		return
	}
	p.accumulate(now)
	p.curSince = now
	p.finished = true
}

// accumulate closes the open span at now, crediting cur and updating
// the longest-stall tracker.
func (p *Profiler) accumulate(now time.Duration) {
	if d := int64(now - p.curSince); d > 0 {
		p.ns[p.cur] += d
	}
	if p.inStall {
		if d := int64(now - p.stallStart); d > p.longestNS {
			p.longestNS = d
			p.longestState = p.stallState
			p.longestAt = int64(p.stallStart)
		}
	}
}

// Finished reports whether Finish has been called. Nil-safe.
func (p *Profiler) Finished() bool { return p != nil && p.finished }

// Budget materializes the accounting. Call after Finish; calling on a
// live profiler returns the totals as of the last transition.
func (p *Profiler) Budget() Budget {
	if p == nil {
		return Budget{}
	}
	b := Budget{
		HandshakeNS:     p.ns[StateHandshake],
		TransferNS:      p.ns[StateTransfer],
		CwndLimitedNS:   p.ns[StateCwndLimited],
		PacingGatedNS:   p.ns[StatePacingGated],
		FlowCtlConnNS:   p.ns[StateFlowCtlConn],
		FlowCtlStreamNS: p.ns[StateFlowCtlStream],
		RecoveryNS:      p.ns[StateRecovery],
		RTOWaitNS:       p.ns[StateRTOWait],
		AppLimitedNS:    p.ns[StateAppLimited],
		Transitions:     p.transitions,
	}
	b.LifetimeNS = b.Sum()
	if p.longestNS > 0 {
		b.LongestStallState = p.longestState.String()
		b.LongestStallNS = p.longestNS
		b.LongestStallAtNS = p.longestAt
	}
	return b
}
