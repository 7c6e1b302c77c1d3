// Package trace records structured events from instrumented transports:
// congestion-control state transitions, congestion-window samples, and
// a count of every transport event (with, on a detailed recorder, the
// event itself). This mirrors the paper's §4.2 instrumentation (23 lines
// of logging added to QUIC) whose output feeds the state-machine
// inference and the root-cause analyses.
//
// A Recorder is the one instrument a connection or controller receives:
// it also carries its endpoint's metrics collector (Series) and stall
// profiling (Profiler, Budgets).
//
// A nil *Recorder is valid and records nothing, so transports can run
// untraced at full speed.
package trace

import (
	"time"

	"quiclab/internal/metrics"
	"quiclab/internal/profile"
)

// StateEvent is one congestion-control state transition.
type StateEvent struct {
	T        time.Duration
	From, To string
}

// Sample is a timestamped scalar (cwnd, throughput, ...).
type Sample struct {
	T time.Duration
	V float64
}

// Recorder accumulates events from one endpoint's run.
type Recorder struct {
	States []StateEvent
	// Cwnd is the congestion window at one sample per simulated second:
	// the first sample, then each one at least a second after the last
	// kept (the thinning fig5 and fig9 print). A detailed recorder's
	// Events keep every sample.
	Cwnd []Sample
	// Events is the qlog-style per-packet event log, populated only by
	// detailed recorders (NewDetailed); see event.go for the taxonomy.
	Events []Event

	// Metrics, if set, is the endpoint's time-series collector: its
	// connections and their controllers register their series through
	// Series. Reset keeps it and empties its series.
	Metrics *metrics.Collector
	// Profile gives every connection opened on the recorder a stall
	// profiler (Profiler); Budgets returns what they measured. Passive:
	// profiling never schedules events or touches the RNG.
	Profile bool

	profilers []*profile.Profiler // one per profiled connection, in creation order

	// The folds every recorder keeps, logged or not: a count per event
	// type, the share of the spurious losses that were QUIC false losses
	// (the rest are TCP DSACKs), the bytes sent and the last close reason.
	counts      [numEventTypes]int
	falseLosses int
	bytesSent   int
	closeReason string

	detail bool
}

// New returns an empty recorder that records state transitions, 1 Hz cwnd
// samples and the event folds, but skips the per-packet event log.
func New() *Recorder { return &Recorder{} }

// NewDetailed returns a recorder that additionally records the
// qlog-style per-packet event log (see event.go).
func NewDetailed() *Recorder { return &Recorder{detail: true} }

// Reset empties the recorder for reuse, keeping the slices' capacity:
// the collector's series are emptied and the profilers dropped. The
// detail flag, Metrics and Profile are preserved. No-op on nil.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.Metrics.Reset()
	clear(r.profilers)
	*r = Recorder{States: r.States[:0], Cwnd: r.Cwnd[:0], Events: r.Events[:0], detail: r.detail,
		Metrics: r.Metrics, Profile: r.Profile, profilers: r.profilers[:0]}
}

// Series registers (or finds) a time series on the recorder's collector;
// nil, the disabled series, when the recorder or its collector is nil.
func (r *Recorder) Series(name string, kind metrics.Kind) *metrics.Series {
	if r == nil {
		return nil
	}
	return r.Metrics.Series(name, kind)
}

// Profiler starts a new connection's stall profiler at now, in the
// handshake state, if the recorder profiles; nil otherwise.
func (r *Recorder) Profiler(now time.Duration) *profile.Profiler {
	if r == nil || !r.Profile {
		return nil
	}
	p := profile.New(now, profile.StateHandshake)
	r.profilers = append(r.profilers, p)
	return p
}

// Budgets finishes any still-open profilers at virtual time end and
// returns the per-connection stall budgets in connection-creation order
// (nil if no connection was profiled).
func (r *Recorder) Budgets(end time.Duration) []profile.Budget {
	if r == nil || len(r.profilers) == 0 {
		return nil
	}
	out := make([]profile.Budget, len(r.profilers))
	for i, p := range r.profilers {
		p.Finish(end)
		out[i] = p.Budget()
	}
	return out
}

// Transition records a state change at time t. No-op on nil.
func (r *Recorder) Transition(t time.Duration, from, to string) {
	if r == nil {
		return
	}
	r.States = append(r.States, StateEvent{T: t, From: from, To: to})
	if r.detail {
		r.emit(Event{T: t, Type: EventStateTransition, From: from, To: to})
	}
}

// SampleCwnd records a congestion-window sample (in bytes), keeping it in
// Cwnd only if it is the first or comes a second or more after the last
// one kept. No-op on nil.
func (r *Recorder) SampleCwnd(t time.Duration, bytes float64) {
	if r == nil {
		return
	}
	if n := len(r.Cwnd); n == 0 || t-r.Cwnd[n-1].T >= time.Second {
		r.Cwnd = append(r.Cwnd, Sample{T: t, V: bytes})
	}
	if r.detail {
		r.emit(Event{T: t, Type: EventCwndSample, Cwnd: bytes})
	}
}

// Counter returns one event count by the name experiments and the
// benchmark digest read: declared_lost, false_loss (QUIC), spurious_rexmit
// (TCP), cc_rto, cc_tlp or fault_injected. It is 0 on nil and panics on
// any other name.
func (r *Recorder) Counter(name string) int {
	var zero Recorder
	if r == nil {
		r = &zero
	}
	switch name {
	case "declared_lost":
		return r.counts[EventPacketLost]
	case "false_loss":
		return r.falseLosses
	case "spurious_rexmit":
		return r.counts[EventSpuriousLoss] - r.falseLosses
	case "cc_rto":
		return r.counts[EventRTOFired]
	case "cc_tlp":
		return r.counts[EventTLPFired]
	case "fault_injected":
		return r.counts[EventFaultInjected]
	}
	panic("trace: unknown counter " + name)
}
