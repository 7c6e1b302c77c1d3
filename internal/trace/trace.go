// Package trace records structured events from instrumented transports:
// congestion-control state transitions, congestion-window samples, and
// named counters. This mirrors the paper's §4.2 instrumentation (23 lines
// of logging added to QUIC) whose output feeds the state-machine
// inference and the root-cause analyses.
//
// A nil *Recorder is valid and records nothing, so transports can run
// untraced at full speed.
package trace

import "time"

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
	Cwnd     []Sample
	Counters map[string]int
	// Events is the qlog-style per-packet event log, populated only by
	// detailed recorders (NewDetailed); see event.go for the taxonomy.
	Events []Event

	// The counts the anomaly pass reads, folded on every recorder so an
	// undetailed one can still summarize them (see Summary).
	acked, lost, spurious, rttSamples int

	detail bool
}

// New returns an empty recorder that records state transitions, 1 Hz cwnd
// samples, counters and the acked/lost/spurious/RTT-sample counts, but
// skips the per-packet event log.
func New() *Recorder {
	return &Recorder{Counters: make(map[string]int)}
}

// NewDetailed returns a recorder that additionally records the
// qlog-style per-packet event log (see event.go).
func NewDetailed() *Recorder {
	r := New()
	r.detail = true
	return r
}

// Reset empties the recorder for reuse, keeping the slices' capacity and
// the counter map's storage. The detail flag is preserved. No-op on nil.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.States = r.States[:0]
	r.Cwnd = r.Cwnd[:0]
	r.Events = r.Events[:0]
	r.acked, r.lost, r.spurious, r.rttSamples = 0, 0, 0, 0
	clear(r.Counters)
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

// Add increments a named counter by n. No-op on nil.
func (r *Recorder) Add(name string, n int) {
	if r == nil {
		return
	}
	if r.Counters == nil {
		r.Counters = make(map[string]int)
	}
	r.Counters[name] += n
}

// Count increments a named counter (e.g. "loss", "false_loss",
// "retransmit", "tlp_probe") by one. No-op on nil.
func (r *Recorder) Count(name string) { r.Add(name, 1) }

// Counter returns the value of a named counter (0 if unset or nil).
func (r *Recorder) Counter(name string) int {
	if r == nil {
		return 0
	}
	return r.Counters[name]
}

// TimeInState returns, for each state, the total virtual time spent in it
// between the first transition and end. The state before the first
// transition is credited from t=0.
func (r *Recorder) TimeInState(end time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration)
	if r == nil || len(r.States) == 0 {
		return out
	}
	cur := r.States[0].From
	last := time.Duration(0)
	for _, e := range r.States {
		out[cur] += e.T - last
		cur, last = e.To, e.T
	}
	if end > last {
		out[cur] += end - last
	}
	return out
}
