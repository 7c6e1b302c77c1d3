package obs

import (
	"fmt"
	"strings"
	"time"

	"quiclab/internal/metrics"
	"quiclab/internal/profile"
	"quiclab/internal/trace"
)

// The anomaly pass: a set of rule-based detectors over one cell's
// sampled metric series (internal/metrics) and rolled-up event summary
// (internal/trace) that flags pathological runs a mean-PLT table would
// silently average away — the "one slow cell skews the conclusion"
// failure mode of unmonitored testbeds.
//
// Every detector is a pure function of the cell's deterministic
// artifacts, so findings are deterministic and safe to write into the
// ledger's cell records. Severities are comparable across rules
// (0..1, higher = worse) so quicreport anomalies can rank cells.

// The anomaly rules.
const (
	// RuleCwndCollapse: the congestion window reached a healthy peak
	// and then stayed collapsed for the whole second half of the run —
	// persistent loss, RTO backoff, or a stuck sender.
	RuleCwndCollapse = "cwnd_collapse"
	// RuleBufferbloat: a link queue held at or near its peak occupancy
	// for most of the run — a standing queue inflating everyone's RTT
	// rather than transient burst absorption.
	RuleBufferbloat = "bufferbloat"
	// RuleSpuriousStorm: a large share of declared losses were
	// spurious — the NACK-threshold misfire pathology (paper Fig 10).
	RuleSpuriousStorm = "spurious_storm"
	// RuleRTTStarvation: the RTT estimator got almost no samples
	// relative to acked traffic (Karn-suppressed under retransmission
	// storms), so every timer was driven by a stale estimate.
	RuleRTTStarvation = "rtt_starvation"
	// RuleHandshakeDominated: a connection spent the majority of its
	// lifetime in the handshake — the page was so small (or the RTT so
	// long) that connection establishment, not transfer, set the PLT.
	RuleHandshakeDominated = "handshake_dominated"
	// RuleStallDominated: a connection spent the majority of its
	// lifetime hard-blocked — flow control, loss recovery, or the RTO
	// ladder — rather than transferring. Cwnd/pacer waits don't count:
	// they are the normal steady state of any bottleneck-bound sender.
	RuleStallDominated = "stall_dominated"
)

// Finding is one flagged pathology on one cell.
type Finding struct {
	Rule string `json:"rule"`
	// Severity ranks findings across rules: 0..1, higher = worse.
	Severity float64 `json:"severity"`
	// Series names the metric series that triggered series-based rules.
	Series string `json:"series,omitempty"`
	Detail string `json:"detail"`
}

// Detection thresholds. Exported so tests and docs reference the exact
// contract; tuned against the repo's own scenario matrix (healthy cells
// stay clean, the pathological fixtures trip).
const (
	// CwndCollapseMinPeakBytes gates the collapse rule: the window must
	// have reached a real working size before "collapsed" means
	// anything (16 full-size packets).
	CwndCollapseMinPeakBytes = 16 * 1460
	// CwndCollapseRatio: the second-half maximum must stay below this
	// fraction of the whole-run peak.
	CwndCollapseRatio = 0.25

	// BufferbloatMinPeakBytes gates the standing-queue rule (a couple
	// of queued packets is not bloat).
	BufferbloatMinPeakBytes = 16 << 10
	// BufferbloatOccupancy: the fraction of samples at >= half the peak
	// queue depth that counts as a standing queue.
	BufferbloatOccupancy = 0.60

	// SpuriousStormMinLosses / SpuriousStormRate gate the
	// spurious-retransmit rule.
	SpuriousStormMinLosses = 5
	SpuriousStormRate      = 0.25

	// RTTStarvationMinAcked / RTTStarvationAckedPerSample gate the
	// starvation rule: with >= 50 acked packets, fewer than one RTT
	// sample per 25 acks means the estimator is starved.
	RTTStarvationMinAcked       = 50
	RTTStarvationAckedPerSample = 25

	// HandshakeDominatedShare: a connection whose handshake component
	// is at least this fraction of its lifetime is flagged.
	HandshakeDominatedShare = 0.5
	// StallDominatedShare: a connection whose hard-blocked components
	// (flow control + recovery + rto_wait; profile.Budget.BlockedNS)
	// are at least this fraction of its lifetime is flagged.
	StallDominatedShare = 0.5
	// BudgetMinLifetime gates both budget rules: sub-millisecond
	// connections (e.g. instantly failed dials) carry no signal.
	BudgetMinLifetime = time.Millisecond
)

// Detect runs every detector over one cell's series, summary, and
// stall budgets (budgets may be nil when profiling was off). end is
// the run's virtual completion time. Findings come back in a fixed
// rule order (cwnd, bufferbloat in series order, spurious, starvation,
// handshake-dominated, stall-dominated), so output is deterministic.
func Detect(series []metrics.SeriesData, sum trace.Summary, end time.Duration, budgets []profile.Budget) []Finding {
	var out []Finding
	for _, sd := range series {
		if sd.Name == metrics.SeriesCwnd {
			if f, ok := detectCwndCollapse(sd, end); ok {
				out = append(out, f)
			}
		}
	}
	for _, sd := range series {
		if strings.HasPrefix(sd.Name, "link.") && strings.HasSuffix(sd.Name, ".queue_bytes") {
			if f, ok := detectBufferbloat(sd); ok {
				out = append(out, f)
			}
		}
	}
	if f, ok := detectSpuriousStorm(sum); ok {
		out = append(out, f)
	}
	if f, ok := detectRTTStarvation(sum); ok {
		out = append(out, f)
	}
	if f, ok := detectHandshakeDominated(budgets); ok {
		out = append(out, f)
	}
	if f, ok := detectStallDominated(budgets); ok {
		out = append(out, f)
	}
	return out
}

// detectCwndCollapse flags a window that peaked and never recovered:
// the maximum over the second half of the run stays below
// CwndCollapseRatio of the whole-run peak.
func detectCwndCollapse(sd metrics.SeriesData, end time.Duration) (Finding, bool) {
	pts := sd.Points
	if len(pts) < 8 || end <= 0 {
		return Finding{}, false
	}
	peak := 0.0
	for _, p := range pts {
		if p.V > peak {
			peak = p.V
		}
	}
	if peak < CwndCollapseMinPeakBytes {
		return Finding{}, false
	}
	half := end / 2
	tailMax, tailN := 0.0, 0
	for _, p := range pts {
		if p.T >= half {
			tailN++
			if p.V > tailMax {
				tailMax = p.V
			}
		}
	}
	if tailN < 4 || tailMax > peak*CwndCollapseRatio {
		return Finding{}, false
	}
	sev := 1 - tailMax/peak
	return Finding{
		Rule:     RuleCwndCollapse,
		Severity: sev,
		Series:   sd.Name,
		Detail: fmt.Sprintf("cwnd peaked at %s but stayed <= %s (%.0f%% of peak) for the entire second half",
			fmtBytes(peak), fmtBytes(tailMax), tailMax/peak*100),
	}, true
}

// detectBufferbloat flags a standing queue: at least
// BufferbloatOccupancy of the samples sit at >= half the peak depth,
// and the peak is big enough to matter.
func detectBufferbloat(sd metrics.SeriesData) (Finding, bool) {
	pts := sd.Points
	if len(pts) < 16 {
		return Finding{}, false
	}
	peak := 0.0
	for _, p := range pts {
		if p.V > peak {
			peak = p.V
		}
	}
	if peak < BufferbloatMinPeakBytes {
		return Finding{}, false
	}
	high := 0
	for _, p := range pts {
		if p.V >= peak/2 {
			high++
		}
	}
	frac := float64(high) / float64(len(pts))
	if frac < BufferbloatOccupancy {
		return Finding{}, false
	}
	return Finding{
		Rule:     RuleBufferbloat,
		Severity: frac,
		Series:   sd.Name,
		Detail: fmt.Sprintf("standing queue: %.0f%% of samples at >= half the %s peak depth",
			frac*100, fmtBytes(peak)),
	}, true
}

// detectSpuriousStorm flags loss detection misfiring at storm rates.
func detectSpuriousStorm(sum trace.Summary) (Finding, bool) {
	if sum.SpuriousLosses < SpuriousStormMinLosses || sum.SpuriousRate < SpuriousStormRate {
		return Finding{}, false
	}
	sev := sum.SpuriousRate
	if sev > 1 {
		sev = 1
	}
	return Finding{
		Rule:     RuleSpuriousStorm,
		Severity: sev,
		Detail: fmt.Sprintf("%d of %d declared losses were spurious (%.0f%%)",
			sum.SpuriousLosses, sum.PacketsLost, sum.SpuriousRate*100),
	}, true
}

// detectRTTStarvation flags an RTT estimator running on almost no
// samples relative to acked traffic.
func detectRTTStarvation(sum trace.Summary) (Finding, bool) {
	if sum.PacketsAcked < RTTStarvationMinAcked {
		return Finding{}, false
	}
	if sum.RTTSamples*RTTStarvationAckedPerSample >= sum.PacketsAcked {
		return Finding{}, false
	}
	sev := 1 - float64(sum.RTTSamples*RTTStarvationAckedPerSample)/float64(sum.PacketsAcked)
	return Finding{
		Rule:     RuleRTTStarvation,
		Severity: sev,
		Detail: fmt.Sprintf("only %d RTT samples for %d acked packets",
			sum.RTTSamples, sum.PacketsAcked),
	}, true
}

// detectHandshakeDominated flags the connection (if any) whose
// handshake component is the largest share of its lifetime at or above
// HandshakeDominatedShare.
func detectHandshakeDominated(budgets []profile.Budget) (Finding, bool) {
	share, idx := 0.0, -1
	for i, b := range budgets {
		if b.LifetimeNS < int64(BudgetMinLifetime) {
			continue
		}
		if s := float64(b.HandshakeNS) / float64(b.LifetimeNS); s > share {
			share, idx = s, i
		}
	}
	if idx < 0 || share < HandshakeDominatedShare {
		return Finding{}, false
	}
	return Finding{
		Rule:     RuleHandshakeDominated,
		Severity: share,
		Detail: fmt.Sprintf("conn %d spent %.0f%% of its %s lifetime in the handshake",
			idx, share*100, time.Duration(budgets[idx].LifetimeNS)),
	}, true
}

// detectStallDominated flags the connection (if any) whose hard-blocked
// components are the largest share of its lifetime at or above
// StallDominatedShare.
func detectStallDominated(budgets []profile.Budget) (Finding, bool) {
	share, idx := 0.0, -1
	for i, b := range budgets {
		if b.LifetimeNS < int64(BudgetMinLifetime) {
			continue
		}
		if s := float64(b.BlockedNS()) / float64(b.LifetimeNS); s > share {
			share, idx = s, i
		}
	}
	if idx < 0 || share < StallDominatedShare {
		return Finding{}, false
	}
	b := budgets[idx]
	return Finding{
		Rule:     RuleStallDominated,
		Severity: share,
		Detail: fmt.Sprintf("conn %d spent %.0f%% of its %s lifetime hard-blocked (longest stall: %s for %s)",
			idx, share*100, time.Duration(b.LifetimeNS),
			b.LongestStallState, time.Duration(b.LongestStallNS)),
	}, true
}

// MaxSeverity returns the worst severity among findings (0 when none).
func MaxSeverity(fs []Finding) float64 {
	max := 0.0
	for _, f := range fs {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max
}

// fmtBytes renders a byte quantity compactly (matches quicreport's
// scale conventions).
func fmtBytes(v float64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	}
	return fmt.Sprintf("%.0fB", v)
}
