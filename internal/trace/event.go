package trace

import (
	"fmt"
	"slices"
	"time"
)

// EventType identifies one kind of qlog-style transport event. The
// taxonomy follows the per-packet lifecycle both stacks share (sent,
// received, acked, declared lost, spurious), the loss-alarm machinery
// (TLP/RTO), the RTT estimator, flow control, pacing, and the
// congestion controller's recovery and state transitions.
type EventType uint8

// The event taxonomy. Names (see String) are the JSONL "ev" values.
const (
	EventPacketSent EventType = iota
	EventPacketReceived
	EventPacketAcked
	EventPacketLost
	EventSpuriousLoss
	EventTLPFired
	EventRTOFired
	EventRTTSample
	EventFlowBlocked
	EventFlowUnblocked
	EventPacingRelease
	EventRecoveryEnter
	EventRecoveryExit
	EventStateTransition
	EventCwndSample
	EventFaultInjected
	EventConnClosed
	EventRTOBackoffCapped

	numEventTypes // sentinel; keep last
)

// Connection close reasons, shared between both transport stacks and
// the core failure classifier. These are the "reason" values carried by
// conn_closed events and mapped onto core.FailureReason.
const (
	ReasonIdleTimeout      = "idle_timeout"
	ReasonHandshakeFailure = "handshake_failure"
	ReasonRTOExhausted     = "rto_exhausted"
	ReasonPeerClosed       = "peer_closed"
)

var eventNames = [numEventTypes]string{
	EventPacketSent:       "packet_sent",
	EventPacketReceived:   "packet_received",
	EventPacketAcked:      "packet_acked",
	EventPacketLost:       "packet_lost",
	EventSpuriousLoss:     "spurious_loss",
	EventTLPFired:         "tlp_fired",
	EventRTOFired:         "rto_fired",
	EventRTTSample:        "rtt_sample",
	EventFlowBlocked:      "flow_blocked",
	EventFlowUnblocked:    "flow_unblocked",
	EventPacingRelease:    "pacing_release",
	EventRecoveryEnter:    "recovery_enter",
	EventRecoveryExit:     "recovery_exit",
	EventStateTransition:  "state_transition",
	EventCwndSample:       "cwnd_sample",
	EventFaultInjected:    "fault_injected",
	EventConnClosed:       "conn_closed",
	EventRTOBackoffCapped: "rto_backoff_capped",
}

// String returns the JSONL name of the event type.
func (t EventType) String() string {
	if t < numEventTypes {
		return eventNames[t]
	}
	return fmt.Sprintf("unknown_%d", uint8(t))
}

// EventTypeByName maps a JSONL "ev" value back to its EventType.
func EventTypeByName(name string) (EventType, bool) {
	for t, n := range eventNames {
		if n == name {
			return EventType(t), true
		}
	}
	return 0, false
}

// Event is one structured trace event. It is a flat record: fields not
// meaningful for a given type are zero and omitted from the JSONL form.
// Times are virtual (simulation) durations since the run started.
//
// PN is the QUIC packet number for the QUIC stack and the segment's
// starting sequence number for TCP (TCP retransmissions reuse sequence
// ranges — the ambiguity the paper contrasts with QUIC's fresh packet
// numbers, visible directly in these logs). Size is the wire size for
// QUIC packets and the payload length for TCP segments.
type Event struct {
	T    time.Duration `json:"t"`
	Type EventType     `json:"ev"`

	PN       uint64 `json:"pn,omitempty"`
	Size     int    `json:"size,omitempty"`
	StreamID uint32 `json:"stream,omitempty"`

	// RTT-estimator fields (EventRTTSample).
	RTT    time.Duration `json:"rtt,omitempty"`
	SRTT   time.Duration `json:"srtt,omitempty"`
	MinRTT time.Duration `json:"min_rtt,omitempty"`
	RTTVar time.Duration `json:"rttvar,omitempty"`

	// CC state fields (EventStateTransition).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`

	// Congestion window in bytes (EventCwndSample).
	Cwnd float64 `json:"cwnd,omitempty"`

	// Fault describes the injected network fault (EventFaultInjected).
	Fault string `json:"fault,omitempty"`

	// Reason classifies an abnormal connection close (EventConnClosed).
	Reason string `json:"reason,omitempty"`
}

// emit appends an event. The caller has already checked r.detail.
//
// A full log doubles (first to 1024 entries). Left to append, a slice of
// 144-byte pointer-carrying elements grows by a quarter at a time, and a
// 4 800-event log allocates, clears and copies five times its final size;
// doubling keeps the total under twice.
//
// emit stays out of line, and the packet events log through logPacket,
// whose scalar arguments cost the inliner less than an Event literal.
// That keeps most emit methods — all but PacketSent, RTTSample,
// ConnClosed and the two spurious-loss wrappers — small enough to inline
// at their call sites, so an undetailed recorder costs a transport a nil
// check, the fold increment and the detail branch, with no call.
//
//go:noinline
func (r *Recorder) emit(e Event) {
	if len(r.Events) == cap(r.Events) {
		r.Events = slices.Grow(r.Events, max(1024, len(r.Events)))
	}
	r.Events = append(r.Events, e)
}

// logPacket emits a packet-lifecycle event.
//
//go:noinline
func (r *Recorder) logPacket(t time.Duration, typ EventType, pn uint64, size int, streamID uint32) {
	r.emit(Event{T: t, Type: typ, PN: pn, Size: size, StreamID: streamID})
}

// Each emit method counts its event in r.counts on any non-nil recorder,
// so Summary and Counter read the same counts with or without the log,
// and logs the event only when detailed.

// PacketSent records a packet transmission; it also folds the bytes sent.
func (r *Recorder) PacketSent(t time.Duration, pn uint64, size int, streamID uint32) {
	if r == nil {
		return
	}
	r.counts[EventPacketSent]++
	r.bytesSent += size
	if r.detail {
		r.logPacket(t, EventPacketSent, pn, size, streamID)
	}
}

// PacketReceived records a packet arrival (post-processing, i.e. when
// the transport actually handles it).
func (r *Recorder) PacketReceived(t time.Duration, pn uint64, size int, streamID uint32) {
	if r == nil {
		return
	}
	r.counts[EventPacketReceived]++
	if r.detail {
		r.logPacket(t, EventPacketReceived, pn, size, streamID)
	}
}

// PacketAcked records that a sent packet was newly acknowledged.
func (r *Recorder) PacketAcked(t time.Duration, pn uint64, size int) {
	if r == nil {
		return
	}
	r.counts[EventPacketAcked]++
	if r.detail {
		r.logPacket(t, EventPacketAcked, pn, size, 0)
	}
}

// PacketLost records a loss declaration.
func (r *Recorder) PacketLost(t time.Duration, pn uint64, size int) {
	if r == nil {
		return
	}
	r.counts[EventPacketLost]++
	if r.detail {
		r.logPacket(t, EventPacketLost, pn, size, 0)
	}
}

// FalseLoss records that a packet QUIC declared lost was acked after all:
// the loss was reordering (paper §5.2). It is the false_loss count.
func (r *Recorder) FalseLoss(t time.Duration, pn uint64) {
	if r != nil {
		r.falseLosses++
	}
	r.spuriousLoss(t, pn)
}

// SpuriousRexmit records a TCP DSACK: a retransmitted segment had been
// delivered already. It is the spurious_rexmit count.
func (r *Recorder) SpuriousRexmit(t time.Duration, pn uint64) { r.spuriousLoss(t, pn) }

// spuriousLoss records that an earlier loss declaration (or
// retransmission) proved spurious: the original packet was delivered.
func (r *Recorder) spuriousLoss(t time.Duration, pn uint64) {
	if r == nil {
		return
	}
	r.counts[EventSpuriousLoss]++
	if r.detail {
		r.logPacket(t, EventSpuriousLoss, pn, 0, 0)
	}
}

// TLPFired records a tail-loss-probe alarm firing.
func (r *Recorder) TLPFired(t time.Duration) {
	if r == nil {
		return
	}
	r.counts[EventTLPFired]++
	if r.detail {
		r.emit(Event{T: t, Type: EventTLPFired})
	}
}

// RTOFired records a retransmission-timeout alarm firing.
func (r *Recorder) RTOFired(t time.Duration) {
	if r == nil {
		return
	}
	r.counts[EventRTOFired]++
	if r.detail {
		r.emit(Event{T: t, Type: EventRTOFired})
	}
}

// RTTSample records one RTT-estimator update: the latest sample and the
// resulting smoothed/min/variance state. minRTT may be 0 when the stack
// does not track it (TCP).
func (r *Recorder) RTTSample(t, rtt, srtt, minRTT, rttvar time.Duration) {
	if r == nil {
		return
	}
	r.counts[EventRTTSample]++
	if r.detail {
		r.emit(Event{T: t, Type: EventRTTSample, RTT: rtt, SRTT: srtt, MinRTT: minRTT, RTTVar: rttvar})
	}
}

// FlowBlocked records the sender becoming flow-control blocked (stream
// or, with streamID 0, connection/peer-window level).
func (r *Recorder) FlowBlocked(t time.Duration, streamID uint32) {
	if r == nil {
		return
	}
	r.counts[EventFlowBlocked]++
	if r.detail {
		r.logPacket(t, EventFlowBlocked, 0, 0, streamID)
	}
}

// FlowUnblocked records a flow-control limit being raised past the
// blocked point.
func (r *Recorder) FlowUnblocked(t time.Duration, streamID uint32) {
	if r == nil {
		return
	}
	r.counts[EventFlowUnblocked]++
	if r.detail {
		r.logPacket(t, EventFlowUnblocked, 0, 0, streamID)
	}
}

// PacingRelease records the pacer releasing a packet to the wire.
func (r *Recorder) PacingRelease(t time.Duration, pn uint64) {
	if r == nil {
		return
	}
	r.counts[EventPacingRelease]++
	if r.detail {
		r.logPacket(t, EventPacingRelease, pn, 0, 0)
	}
}

// RecoveryEnter records the congestion controller entering loss
// recovery.
func (r *Recorder) RecoveryEnter(t time.Duration) {
	if r == nil {
		return
	}
	r.counts[EventRecoveryEnter]++
	if r.detail {
		r.emit(Event{T: t, Type: EventRecoveryEnter})
	}
}

// RecoveryExit records the congestion controller leaving loss recovery.
func (r *Recorder) RecoveryExit(t time.Duration) {
	if r == nil {
		return
	}
	r.counts[EventRecoveryExit]++
	if r.detail {
		r.emit(Event{T: t, Type: EventRecoveryExit})
	}
}

// FaultInjected records a scheduled network fault mutating the link
// (rate/delay/loss step, outage window edge, burst-loss toggle).
func (r *Recorder) FaultInjected(t time.Duration, fault string) {
	if r == nil {
		return
	}
	r.counts[EventFaultInjected]++
	if r.detail {
		r.emit(Event{T: t, Type: EventFaultInjected, Fault: fault})
	}
}

// ConnClosed records an abnormal connection teardown with its
// classified reason (one of the Reason* constants); it also folds the
// last reason seen.
func (r *Recorder) ConnClosed(t time.Duration, reason string) {
	if r == nil {
		return
	}
	r.counts[EventConnClosed]++
	r.closeReason = reason
	if r.detail {
		r.emit(Event{T: t, Type: EventConnClosed, Reason: reason})
	}
}

// RTOBackoffCapped records the exponential RTO backoff hitting its
// absolute delay cap.
func (r *Recorder) RTOBackoffCapped(t time.Duration) {
	if r == nil {
		return
	}
	r.counts[EventRTOBackoffCapped]++
	if r.detail {
		r.emit(Event{T: t, Type: EventRTOBackoffCapped})
	}
}
