package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Summary rolls an event log up into per-run metrics: event counts,
// derived rates, RTT percentiles, and the time-in-state histogram. It is
// the bridge between the raw qlog-style stream and the paper-style
// aggregate tables (loss rate, spurious-retransmit rate, RTT behaviour).
type Summary struct {
	PacketsSent     int
	PacketsReceived int
	PacketsAcked    int
	PacketsLost     int
	SpuriousLosses  int
	TLPs            int
	RTOs            int
	FlowBlocks      int
	PacingReleases  int
	Recoveries      int
	BytesSent       int64

	// Faults counts injected network faults; CloseReason is the last
	// abnormal-close classification seen (empty when the connection
	// finished normally).
	Faults      int
	CloseReason string

	// LossRate is PacketsLost / PacketsSent; SpuriousRate is
	// SpuriousLosses / PacketsLost (how often loss detection misfired).
	LossRate     float64
	SpuriousRate float64

	// RTT percentiles over the latest-sample series.
	RTTSamples                     int
	RTTMin, RTTP50, RTTP95, RTTP99 time.Duration
	RTTMax                         time.Duration

	// TimeInState is the virtual time spent in each CC state, from the
	// recorder's state transitions (the state before the first transition
	// is credited from t=0; the last state runs until End). Recorder.Summary
	// fills it; Summarize leaves it nil.
	TimeInState map[string]time.Duration
	// End is the horizon used for the last state's residency.
	End time.Duration
}

// Summarize rolls an event stream up into a Summary: its counts, rates
// and RTT percentiles (time in state comes from a recorder's transitions:
// Recorder.Summary). end is the run's completion time; events at or
// beyond end still count.
func Summarize(events []Event, end time.Duration) Summary {
	s := Summary{End: end}
	var rtts []time.Duration
	for _, e := range events {
		switch e.Type {
		case EventPacketSent:
			s.PacketsSent++
			s.BytesSent += int64(e.Size)
		case EventPacketReceived:
			s.PacketsReceived++
		case EventPacketAcked:
			s.PacketsAcked++
		case EventPacketLost:
			s.PacketsLost++
		case EventSpuriousLoss:
			s.SpuriousLosses++
		case EventTLPFired:
			s.TLPs++
		case EventRTOFired:
			s.RTOs++
		case EventFlowBlocked:
			s.FlowBlocks++
		case EventPacingRelease:
			s.PacingReleases++
		case EventRecoveryEnter:
			s.Recoveries++
		case EventRTTSample:
			rtts = append(rtts, e.RTT)
		case EventFaultInjected:
			s.Faults++
		case EventConnClosed:
			s.CloseReason = e.Reason
		}
	}
	s.deriveRates()
	s.RTTSamples = len(rtts)
	if len(rtts) > 0 {
		sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
		s.RTTMin = rtts[0]
		s.RTTMax = rtts[len(rtts)-1]
		s.RTTP50 = percentile(rtts, 50)
		s.RTTP95 = percentile(rtts, 95)
		s.RTTP99 = percentile(rtts, 99)
	}
	return s
}

// deriveRates fills LossRate and SpuriousRate from the packet counts.
func (s *Summary) deriveRates() {
	if s.PacketsSent > 0 {
		s.LossRate = float64(s.PacketsLost) / float64(s.PacketsSent)
	}
	if s.PacketsLost > 0 {
		s.SpuriousRate = float64(s.SpuriousLosses) / float64(s.PacketsLost)
	}
}

// percentile returns the p-th percentile (nearest-rank) of sorted
// durations.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// Summary rolls the recorder up into a Summary. Every count, the rates,
// the close reason and the time in each state come from what every
// recorder keeps, so a recorder with or without the log reports them
// alike; the RTT percentiles need the log (Summarize), so an undetailed
// recorder's are zero. A nil recorder's summary counts nothing.
func (r *Recorder) Summary(end time.Duration) Summary {
	if r == nil {
		r = &Recorder{}
	}
	s, n := Summarize(r.Events, end), &r.counts
	s.TimeInState = timeInState(r.States, end)
	s.PacketsSent, s.PacketsReceived, s.PacketsAcked = n[EventPacketSent], n[EventPacketReceived], n[EventPacketAcked]
	s.PacketsLost, s.SpuriousLosses = n[EventPacketLost], n[EventSpuriousLoss]
	s.TLPs, s.RTOs, s.Recoveries = n[EventTLPFired], n[EventRTOFired], n[EventRecoveryEnter]
	s.FlowBlocks, s.PacingReleases = n[EventFlowBlocked], n[EventPacingRelease]
	s.Faults, s.RTTSamples = n[EventFaultInjected], n[EventRTTSample]
	s.BytesSent, s.CloseReason = int64(r.bytesSent), r.closeReason
	s.deriveRates()
	return s
}

// timeInState credits each state with the virtual time between entering
// it and leaving it (or end); the state before the first transition is
// credited from t=0.
func timeInState(states []StateEvent, end time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration)
	if len(states) == 0 {
		return out
	}
	cur, last := states[0].From, time.Duration(0)
	for _, e := range states {
		out[cur] += e.T - last
		cur, last = e.To, e.T
	}
	if end > last {
		out[cur] += end - last
	}
	return out
}

// TopState returns the state with the largest time-in-state residency
// and its share of End (ties broken alphabetically for determinism).
func (s Summary) TopState() (string, float64) {
	names := make([]string, 0, len(s.TimeInState))
	for name := range s.TimeInState {
		names = append(names, name)
	}
	sort.Strings(names)
	best, bestD := "", time.Duration(-1)
	for _, name := range names {
		if d := s.TimeInState[name]; d > bestD {
			best, bestD = name, d
		}
	}
	if best == "" || s.End <= 0 {
		return best, 0
	}
	return best, float64(bestD) / float64(s.End)
}

// String renders the summary as an aligned multi-line table.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packets: sent=%d received=%d acked=%d lost=%d spurious=%d\n",
		s.PacketsSent, s.PacketsReceived, s.PacketsAcked, s.PacketsLost, s.SpuriousLosses)
	fmt.Fprintf(&b, "alarms:  tlp=%d rto=%d recoveries=%d flow_blocks=%d pacing_releases=%d\n",
		s.TLPs, s.RTOs, s.Recoveries, s.FlowBlocks, s.PacingReleases)
	fmt.Fprintf(&b, "rates:   loss=%.3f%% spurious=%.1f%% bytes_sent=%d\n",
		s.LossRate*100, s.SpuriousRate*100, s.BytesSent)
	if s.Faults > 0 || s.CloseReason != "" {
		fmt.Fprintf(&b, "faults:  injected=%d close_reason=%s\n", s.Faults, s.CloseReason)
	}
	if s.RTTSamples > 0 {
		fmt.Fprintf(&b, "rtt:     n=%d min=%v p50=%v p95=%v p99=%v max=%v\n",
			s.RTTSamples, s.RTTMin, s.RTTP50, s.RTTP95, s.RTTP99, s.RTTMax)
	}
	if len(s.TimeInState) > 0 {
		names := make([]string, 0, len(s.TimeInState))
		for name := range s.TimeInState {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "states: ")
		for _, name := range names {
			share := 0.0
			if s.End > 0 {
				share = float64(s.TimeInState[name]) / float64(s.End) * 100
			}
			fmt.Fprintf(&b, " %s=%.1f%%", name, share)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
