package core

import (
	"fmt"
	"sort"
	"strings"

	"quiclab/internal/trace"
)

// FailureReason classifies why a page load did not complete. It replaces
// the bare "hit the deadline" accounting: a run that fails now reports
// whether the transport itself gave up (and why) or whether the transfer
// was simply too slow for the scenario's deadline.
type FailureReason int

// The failure taxonomy, ordered roughly by how early in a connection's
// life each one strikes.
const (
	// FailNone: the run completed.
	FailNone FailureReason = iota
	// FailHandshake: handshake retransmissions were exhausted
	// (trace.ReasonHandshakeFailure).
	FailHandshake
	// FailIdleTimeout: nothing arrived for the idle-timeout period
	// (trace.ReasonIdleTimeout).
	FailIdleTimeout
	// FailRTOExhausted: the sender exhausted its RTO backoff chain
	// (trace.ReasonRTOExhausted).
	FailRTOExhausted
	// FailDeadline: the transports stayed alive but the page load did
	// not finish before the scenario deadline.
	FailDeadline
	// FailOther: an abnormal close with no dedicated classification
	// (e.g. the peer tore the connection down first).
	FailOther
	// FailCellPanic: the cell's worker panicked — experiment code failed,
	// or the simulation spent its event budget (testbed.run) — and the
	// engine contained the panic (stack captured into the ledger) instead
	// of killing the sweep. Unlike the transport failures above, this
	// classifies the harness, not the emulated page load.
	FailCellPanic

	numFailureReasons // sentinel; keep last
)

var failureNames = [numFailureReasons]string{
	FailNone:         "none",
	FailHandshake:    "handshake_failure",
	FailIdleTimeout:  "idle_timeout",
	FailRTOExhausted: "rto_exhausted",
	FailDeadline:     "deadline",
	FailOther:        "other",
	FailCellPanic:    "cell_panic",
}

func (f FailureReason) String() string {
	if f >= 0 && f < numFailureReasons {
		return failureNames[f]
	}
	return fmt.Sprintf("unknown_%d", int(f))
}

// classifyFailure maps a transport close reason (trace.Reason* value)
// onto the core failure taxonomy.
func classifyFailure(reason string) FailureReason {
	switch reason {
	case trace.ReasonHandshakeFailure:
		return FailHandshake
	case trace.ReasonIdleTimeout:
		return FailIdleTimeout
	case trace.ReasonRTOExhausted:
		return FailRTOExhausted
	default:
		return FailOther
	}
}

// FailureSummary renders the per-reason failure counts as a stable,
// sorted "reason=count" list ("" when every run completed).
func (cm Comparison) FailureSummary() string {
	if len(cm.Failures) == 0 {
		return ""
	}
	reasons := make([]FailureReason, 0, len(cm.Failures))
	for r := range cm.Failures {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	parts := make([]string, 0, len(reasons))
	for _, r := range reasons {
		parts = append(parts, fmt.Sprintf("%s=%d", r, cm.Failures[r]))
	}
	return strings.Join(parts, " ")
}
