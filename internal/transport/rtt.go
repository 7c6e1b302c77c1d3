package transport

import (
	"time"

	"quiclab/internal/metrics"
)

// Loss-timer policy shared by both stacks.
const (
	// MinRTO floors the retransmission timeout, MinPTO the probe timeout.
	MinRTO = 200 * time.Millisecond
	MinPTO = 10 * time.Millisecond
	// MaxRTOs is how many consecutive unanswered RTOs a connection
	// survives; the next one closes it with trace.ReasonRTOExhausted.
	MaxRTOs = 8
	// MaxRTODelay is the absolute ceiling on the exponentially backed-off
	// RTO: after long outages the sender probes at least this often, so
	// recovery latency once the link returns is bounded.
	MaxRTODelay   = 10 * time.Second
	maxRTOBackoff = 6
)

// Estimator is the srtt/rttvar EWMA (RFC 6298 gains) with its two series.
// What counts as a sample — QUIC's ack-delay-corrected microseconds, TCP's
// millisecond timestamp echoes under Karn's rule — is the stack's business.
type Estimator struct {
	srtt, rttvar   time.Duration
	mSRTT, mRTTVar *metrics.Series
}

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (e *Estimator) SRTT() time.Duration { return e.srtt }

// RTTVar returns the RTT mean deviation.
func (e *Estimator) RTTVar() time.Duration { return e.rttvar }

// SRTTOr is SRTT, or initial before the first sample.
func (e *Estimator) SRTTOr(initial time.Duration) time.Duration {
	if e.srtt == 0 {
		return initial
	}
	return e.srtt
}

// UpdateRTT folds in one sample taken at now. The first sample seeds the
// estimate and records no series point.
func (e *Estimator) UpdateRTT(now, sample time.Duration) {
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
		return
	}
	d := e.srtt - sample
	if d < 0 {
		d = -d
	}
	e.rttvar = (3*e.rttvar + d) / 4
	e.srtt = (7*e.srtt + sample) / 8
	if e.mSRTT != nil {
		e.mSRTT.Record(now, float64(e.srtt))
		e.mRTTVar.Record(now, float64(e.rttvar))
	}
}

// PTO is the tail-loss-probe timeout: two smoothed RTTs, floored.
func (e *Estimator) PTO(initial time.Duration) time.Duration {
	return max(2*e.SRTTOr(initial), MinPTO)
}

// RTO is the retransmission timeout after backoff consecutive timeouts:
// srtt + 4·rttvar, floored, doubled per timeout up to 2^6, and clamped to
// MaxRTODelay — capped reports the clamp.
func (e *Estimator) RTO(initial time.Duration, backoff int) (delay time.Duration, capped bool) {
	delay = max(e.SRTTOr(initial)+4*e.rttvar, MinRTO) << min(backoff, maxRTOBackoff)
	if delay > MaxRTODelay {
		return MaxRTODelay, true
	}
	return delay, false
}

// RTODelay is Estimator.RTO plus the trace of a clamped backoff.
func (c *Conn) RTODelay(initial time.Duration, backoff int) time.Duration {
	d, capped := c.RTO(initial, backoff)
	if capped {
		c.tracer.RTOBackoffCapped(c.sim.Now())
	}
	return d
}

// Retry is the handshake retransmission ladder: the first flight is
// covered by no ack feedback at all, so it gets a dedicated timer that
// waits 1s<<min(n,3) after attempt n (1, 2, 4, 8, 8, 8 s) and gives up
// after MaxRetries retransmissions — 31 s in.
type Retry struct{ tries int }

// MaxRetries is the number of handshake retransmissions before failure
// (Linux's tcp_syn_retries; gQUIC's CHLO cap).
const (
	MaxRetries    = 5
	retryBase     = time.Second
	maxRetryShift = 3
)

// Next counts one attempt and returns how long to wait for its answer;
// ok is false once the attempts are used up, and the caller fails the
// connection with trace.ReasonHandshakeFailure.
func (r *Retry) Next() (wait time.Duration, ok bool) {
	if r.tries > MaxRetries {
		return 0, false
	}
	wait = retryBase << min(r.tries, maxRetryShift)
	r.tries++
	return wait, true
}

// Tries returns the attempts made so far (the first one included).
func (r *Retry) Tries() int { return r.tries }
