package cc

import (
	"time"

	"quiclab/internal/trace"
)

// BBR2's ProbeBW sub-phases are first-class states so the inferred
// machine shows the probe ladder.
const (
	bbr2ProbeDown   = "ProbeBW_Down"
	bbr2ProbeCruise = "ProbeBW_Cruise"
	bbr2ProbeRefill = "ProbeBW_Refill"
	bbr2ProbeUp     = "ProbeBW_Up"
)

const (
	bbr2Beta         = 0.7  // inflight_hi multiplicative decrease on loss
	bbr2LossThresh   = 0.02 // tolerable loss fraction per round before reacting
	bbr2HeadroomGain = 0.85 // cruise below inflight_hi to leave headroom
	bbr2CruiseRounds = 4    // rounds to cruise before refilling
)

// bbr2 is a BBRv2-style probe variant of BBR: the same bandwidth model
// with v2's loss awareness — an explicit inflight_hi bound cut
// multiplicatively when per-round loss exceeds a threshold, and the
// ProbeBW gain cycle replaced by the DOWN/CRUISE/REFILL/UP ladder that
// probes for more bandwidth only after refilling the pipe. The paper's
// BBR predates all of this; the variant is the registry's "what came
// next" arm (see ROADMAP item 1 / Wolsing et al.).
type bbr2 struct {
	bwModel

	// Per-round loss accounting for the loss-rate trigger.
	roundLostBytes  int
	roundAckedBytes int

	// inflightHi is the validated upper bound on the window (bytes); 0
	// means not yet constrained.
	inflightHi int

	// phaseRounds counts the round starts since the last transition
	// enter made. The model's own move to ProbeRTT does not reset it;
	// nothing reads it there, and leaving ProbeRTT does.
	phaseRounds int
}

func newBBR2(mss int, tracer *trace.Recorder) *bbr2 {
	return &bbr2{bwModel: newBWModel(mss, tracer)}
}

// enter moves to state s, restarting the phase's round count if that
// is a change, and paces at gain.
func (b *bbr2) enter(now time.Duration, s string, gain float64) {
	if s != b.state {
		b.phaseRounds = 0
		b.setState(now, s)
	}
	b.pacingGain = gain
}

// OnAck implements Controller.
func (b *bbr2) OnAck(now time.Duration, sendIndex uint64, bytes int, rtt time.Duration, inFlight int) {
	b.roundAckedBytes += bytes
	if b.onAck(now, sendIndex, bytes, rtt) {
		b.onRoundStart(now)
	}
	b.updateState(now, inFlight)
}

// onRoundStart closes the per-round loss accounting and advances the
// probe ladder one rung.
func (b *bbr2) onRoundStart(now time.Duration) {
	// Loss-rate reaction: too much loss in the round cuts inflight_hi.
	total := b.roundAckedBytes + b.roundLostBytes
	if total > 0 && float64(b.roundLostBytes) > bbr2LossThresh*float64(total) {
		hi := b.inflightHi
		if hi == 0 {
			hi = int(bbrCwndGain * b.bdp())
		}
		b.inflightHi = max(int(float64(hi)*bbr2Beta), 4*b.mss)
		if b.state == bbr2ProbeUp || b.state == bbr2ProbeRefill {
			b.enter(now, bbr2ProbeDown, 0.9)
		}
	}
	b.roundLostBytes = 0
	b.roundAckedBytes = 0
	b.phaseRounds++
}

func (b *bbr2) updateState(now time.Duration, inFlight int) {
	switch b.state {
	case bbrStartup:
		if b.filled {
			b.enter(now, bbrDrain, bbrDrainGain)
		}
	case bbrDrain:
		if float64(inFlight) <= b.bdp() {
			b.enter(now, bbr2ProbeDown, 0.9)
		}
	case bbr2ProbeDown:
		// Leave DOWN once in-flight has dropped below the headroom
		// target (or after a round, whichever comes first).
		target := float64(b.volumeBound()) * bbr2HeadroomGain
		if float64(inFlight) <= target || b.phaseRounds >= 1 {
			b.enter(now, bbr2ProbeCruise, 1)
		}
	case bbr2ProbeCruise:
		if b.phaseRounds >= bbr2CruiseRounds {
			b.enter(now, bbr2ProbeRefill, 1)
		}
	case bbr2ProbeRefill:
		// One round refilling the pipe at estimated bw, then probe up.
		if b.phaseRounds >= 1 {
			b.enter(now, bbr2ProbeUp, 1.25)
		}
	case bbr2ProbeUp:
		// Probe for one round; growth shows up in the bw filter, loss
		// shows up as an inflight_hi cut (handled in onRoundStart).
		if b.phaseRounds >= 1 {
			b.enter(now, bbr2ProbeDown, 0.9)
		}
	case bbrProbeRTT:
		if now-b.probeRTTStart > bbrProbeRTTLength {
			b.enter(now, bbr2ProbeCruise, 1)
		}
	}
	b.report(now, b.Window())
}

// OnLoss implements Controller. Loss is absorbed into the per-round
// rate accounting; the reaction happens at the round boundary.
func (b *bbr2) OnLoss(now time.Duration, sendIndex uint64, bytes int, inFlight int) {
	b.onLoss(sendIndex)
	b.roundLostBytes += bytes
}

// OnRTO implements Controller: collapse the validated bound — an RTO
// means the model badly overestimated the path.
func (b *bbr2) OnRTO(now time.Duration) {
	b.inflightHi = 4 * b.mss
	if b.inProbeBW() {
		b.enter(now, bbr2ProbeDown, 0.9)
	}
}

// CanSend implements Controller.
func (b *bbr2) CanSend(inFlight int) bool { return inFlight+b.mss <= b.Window() }

// volumeBound returns the model's window clipped to the validated
// inflight_hi.
func (b *bbr2) volumeBound() int {
	w := b.bdpWindow()
	if b.inflightHi > 0 && w > b.inflightHi {
		w = b.inflightHi
	}
	return w
}

// Window implements Controller: the volume bound, cruising with
// headroom below it, floored at 4 packets and pinned there during
// ProbeRTT.
func (b *bbr2) Window() int {
	w := b.volumeBound()
	if b.state == bbr2ProbeCruise {
		w = min(w, int(float64(w)*bbr2HeadroomGain))
	}
	return b.floorWindow(w)
}

func init() {
	Register("bbr2", func(cfg Config) Controller {
		return newBBR2(cfg.MSS, cfg.Tracer)
	})
}
