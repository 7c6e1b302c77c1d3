package cc

import (
	"math"
	"time"

	"quiclab/internal/trace"
)

// CubicConfig parameterises a Cubic controller. The defaults (via
// DefaultQUICConfig / DefaultTCPConfig) match the configurations the
// paper calibrated: gQUIC 34 with MACW 430 and 2-connection emulation vs
// the Linux Cubic defaults.
type CubicConfig struct {
	// MSS is the maximum payload bytes per packet.
	MSS int
	// InitialCwndPackets is the initial congestion window (packets).
	InitialCwndPackets int
	// MaxCwndPackets is the maximum allowed congestion window (the
	// paper's MACW: 107 Chromium-52 default, 430 dev-channel/QUIC-34,
	// 2000 QUIC-37). Zero means unlimited.
	MaxCwndPackets int
	// InitialSSThreshPackets caps slow start from the beginning. Zero
	// means unlimited. The paper's Chromium-52 server bug — ssthresh not
	// updated from the receiver-advertised buffer — is modelled by a
	// small finite value here.
	InitialSSThreshPackets int
	// Connections is gQUIC's N-connection emulation (N=2 in QUIC 34,
	// N=1 in QUIC 37); it scales Cubic's alpha and beta so one QUIC
	// connection behaves like N TCP connections.
	Connections int
	// HyStart enables hybrid slow start (delay-increase early exit).
	HyStart bool
	// PRR enables proportional rate reduction during recovery.
	PRR bool
	// Pacing enables packet pacing (2x cwnd rate in slow start, 1.25x in
	// congestion avoidance).
	Pacing bool
	// Tracer receives state transitions and cwnd samples, and registers
	// the time series (cwnd, ssthresh, pacing rate) on its collector.
	// May be nil.
	Tracer *trace.Recorder
}

// DefaultQUICConfig returns the calibrated gQUIC-34 configuration
// (paper §4.1): ICW 32, MACW 430, N=2, HyStart+PRR+pacing on.
func DefaultQUICConfig() CubicConfig {
	return CubicConfig{
		MSS:                1350 - 27, // QUIC payload minus header overhead
		InitialCwndPackets: 32,
		MaxCwndPackets:     430,
		Connections:        2,
		HyStart:            true,
		PRR:                true,
		Pacing:             true,
	}
}

// DefaultTCPConfig returns the Linux-like TCP Cubic configuration: ICW
// 10, no MACW (receive-window limited), single connection, HyStart+PRR on
// (Linux has both), no pacing (pre-BBR Linux did not pace).
func DefaultTCPConfig() CubicConfig {
	return CubicConfig{
		MSS:                1448,
		InitialCwndPackets: 10,
		Connections:        1,
		HyStart:            true,
		PRR:                true,
	}
}

const (
	cubicC               = 0.4  // packets/sec^3
	cubicBeta            = 0.7  // multiplicative decrease for one connection
	betaLastMax          = 0.85 // fast-convergence Wmax shrink
	minCwndPkts          = 2
	hystartLowWindowPkts = 16
	hystartMinSamples    = 8
	hystartDelayMin      = 4 * time.Millisecond
	hystartDelayMax      = 16 * time.Millisecond
	initialRTTGuess      = 100 * time.Millisecond
)

// Cubic implements Controller with the Cubic algorithm plus the gQUIC
// extensions the paper studies, on the loss-based core Reno and Vegas
// share.
type Cubic struct {
	reno
	cfg CubicConfig

	maxCwnd int // bytes; unlimited without a MACW

	// Cubic epoch.
	epochStart     time.Duration // 0 = unset
	wMax           float64       // packets
	lastWMax       float64
	k              float64 // seconds
	originPoint    float64 // packets
	ackedRemainder float64 // fractional MSS accumulated in CA

	// PRR.
	prrDelivered   int
	prrOut         int
	recoveryFlight int

	// HyStart.
	roundEnd        uint64
	roundMinRTT     time.Duration
	lastRoundMinRTT time.Duration
	roundSamples    int
}

// NewCubic returns a Cubic controller. Zero-valued config fields get the
// DefaultTCPConfig values.
func NewCubic(cfg CubicConfig) *Cubic {
	if cfg.MSS == 0 {
		cfg.MSS = 1448
	}
	if cfg.InitialCwndPackets == 0 {
		cfg.InitialCwndPackets = 10
	}
	if cfg.Connections == 0 {
		cfg.Connections = 1
	}
	caGain := 0.0
	if cfg.Pacing {
		caGain = 1.25
	}
	c := &Cubic{
		reno:            newReno(cfg.MSS, cfg.InitialCwndPackets*cfg.MSS, caGain, cfg.Tracer),
		cfg:             cfg,
		maxCwnd:         unlimited,
		roundMinRTT:     -1,
		lastRoundMinRTT: -1,
	}
	if cfg.MaxCwndPackets > 0 {
		c.maxCwnd = cfg.MaxCwndPackets * cfg.MSS
	}
	if cfg.InitialSSThreshPackets > 0 {
		c.ssthresh = cfg.InitialSSThreshPackets * cfg.MSS
	}
	return c
}

// beta returns the N-connection-emulated multiplicative decrease factor:
// (N-1+beta)/N, so N emulated connections back off as gently as N real
// Cubic flows would in aggregate.
func (c *Cubic) beta() float64 {
	n := float64(c.cfg.Connections)
	return (n - 1 + cubicBeta) / n
}

// alpha returns the N-connection-emulated Reno-friendly additive increase
// per RTT: 3 N^2 (1-beta_N) / (1+beta_N).
func (c *Cubic) alpha() float64 {
	n := float64(c.cfg.Connections)
	b := c.beta()
	return 3 * n * n * (1 - b) / (1 + b)
}

func (c *Cubic) cwndPkts() float64 { return float64(c.cwnd) / float64(c.mss) }

// OnPacketSent implements Controller.
func (c *Cubic) OnPacketSent(now time.Duration, sendIndex uint64, bytes int) {
	c.reno.OnPacketSent(now, sendIndex, bytes)
	if c.inRecovery {
		c.prrOut += bytes
	}
}

// OnAck implements Controller. The end of a TLP, RTO or recovery episode
// shows the growth state at once, before this ack's growth; acks inside
// recovery feed PRR, and an app-limited sender does not grow a window it
// is not using.
func (c *Cubic) OnAck(now time.Duration, sendIndex uint64, bytes int, rtt time.Duration, inFlight int) {
	if c.onAck(sendIndex, rtt) {
		c.restoreGrowthState(now)
	}
	if c.inRecovery {
		c.prrDelivered += bytes
	} else if !c.appLimited {
		if c.cwnd < c.ssthresh {
			c.cwnd = min(c.cwnd+bytes, c.maxCwnd)
			if c.cfg.HyStart && rtt > 0 {
				c.hystartOnAck(sendIndex, rtt)
			}
			if c.cwnd >= c.ssthresh {
				// Crossed ssthresh (e.g. the paper's Chromium-52 bug with a
				// small fixed ssthresh): continue in congestion avoidance.
				c.epochStart = 0
				if c.wMax == 0 {
					c.wMax = c.cwndPkts()
				}
			}
		} else {
			c.congestionAvoidanceOnAck(now, bytes)
		}
		c.restoreGrowthState(now)
	}
	c.report(now)
}

func (c *Cubic) hystartOnAck(sendIndex uint64, rtt time.Duration) {
	if c.roundEnd == 0 || sendIndex > c.roundEnd {
		// New round: rotate min-RTT trackers.
		c.lastRoundMinRTT = c.roundMinRTT
		c.roundMinRTT = -1
		c.roundSamples = 0
		c.roundEnd = c.lastSentIndex
	}
	c.roundSamples++
	if c.roundMinRTT < 0 || rtt < c.roundMinRTT {
		c.roundMinRTT = rtt
	}
	if c.cwndPkts() < hystartLowWindowPkts {
		return
	}
	if c.lastRoundMinRTT < 0 || c.roundSamples < hystartMinSamples {
		return
	}
	thresh := c.lastRoundMinRTT / 8
	if thresh < hystartDelayMin {
		thresh = hystartDelayMin
	}
	if thresh > hystartDelayMax {
		thresh = hystartDelayMax
	}
	if c.roundMinRTT >= c.lastRoundMinRTT+thresh {
		// Delay increase detected: the path is filling. Exit slow start.
		c.ssthresh = c.cwnd
		c.epochStart = 0
		c.wMax = c.cwndPkts()
	}
}

func (c *Cubic) congestionAvoidanceOnAck(now time.Duration, ackedBytes int) {
	if c.cwnd >= c.maxCwnd {
		c.cwnd = c.maxCwnd
		return
	}
	srtt := c.srtt
	if srtt == 0 {
		srtt = initialRTTGuess
	}
	if c.epochStart == 0 {
		c.epochStart = now
		cw := c.cwndPkts()
		if cw < c.wMax {
			c.k = math.Cbrt((c.wMax - cw) / cubicC)
			c.originPoint = c.wMax
		} else {
			c.k = 0
			c.originPoint = cw
		}
		c.ackedRemainder = 0
	}
	t := (now - c.epochStart + srtt).Seconds()
	wCubic := cubicC*math.Pow(t-c.k, 3) + c.originPoint
	// TCP-friendly (Reno emulation with N connections).
	wEst := c.wMax*c.beta() + c.alpha()*(now-c.epochStart+srtt).Seconds()/srtt.Seconds()
	target := wCubic
	if wEst > target {
		target = wEst
	}
	cw := c.cwndPkts()
	var deltaPkts float64
	if target > cw {
		deltaPkts = (target - cw) / cw * (float64(ackedBytes) / float64(c.mss))
	} else {
		deltaPkts = (float64(ackedBytes) / float64(c.mss)) / (100 * cw)
	}
	c.ackedRemainder += deltaPkts * float64(c.mss)
	if c.ackedRemainder >= 1 {
		inc := int(c.ackedRemainder)
		c.ackedRemainder -= float64(inc)
		c.cwnd += inc
	}
	if c.cwnd > c.maxCwnd {
		c.cwnd = c.maxCwnd
	}
}

// convergeWMax records the window at a congestion signal as Wmax, with
// fast convergence: release bandwidth faster when Wmax is shrinking.
func (c *Cubic) convergeWMax() {
	cw := c.cwndPkts()
	if cw < c.lastWMax {
		c.wMax = cw * (1 + c.beta()) / 2
	} else {
		c.wMax = cw
	}
	c.lastWMax = cw
}

// OnLoss implements Controller: a beta_N cut once per episode, with PRR
// clocking sends through the recovery.
func (c *Cubic) OnLoss(now time.Duration, sendIndex uint64, bytes int, inFlight int) {
	if !c.newLossEpisode(sendIndex) {
		return
	}
	c.convergeWMax()
	c.epochStart = 0
	c.prrDelivered = 0
	c.prrOut = 0
	c.recoveryFlight = max(inFlight, c.mss)
	c.enterRecovery(now, int(float64(c.cwnd)*c.beta()))
}

// OnRTO implements Controller.
func (c *Cubic) OnRTO(now time.Duration) {
	c.convergeWMax()
	c.epochStart = 0
	c.reno.OnRTO(now)
}

// SetAppLimited implements Controller.
func (c *Cubic) SetAppLimited(now time.Duration, why Limit) {
	limited := why != LimitNone
	if c.appLimited == limited {
		return
	}
	c.appLimited = limited
	if c.state != StateInit {
		c.restoreGrowthState(now)
	}
}

// restoreGrowthState is reno's settle with CongestionAvoidanceMaxed for
// a window held at the MACW.
func (c *Cubic) restoreGrowthState(now time.Duration) {
	if c.cwnd >= c.maxCwnd && !c.appLimited && !c.inRecovery && !c.inRTO && !c.inTLP {
		c.set(now, StateCAMaxed)
		return
	}
	c.settle(now)
}

// CanSend implements Controller. During recovery with PRR enabled, sends
// are clocked by proportional rate reduction rather than raw cwnd.
func (c *Cubic) CanSend(inFlight int) bool {
	if c.inRecovery && c.cfg.PRR {
		if inFlight > c.ssthresh {
			// Proportional reduction phase.
			return c.prrDelivered*c.ssthresh/c.recoveryFlight > c.prrOut
		}
		// Slow-start reduction bound: regrow toward ssthresh.
		return c.prrDelivered+c.mss > c.prrOut && inFlight+c.mss <= c.ssthresh
	}
	return c.reno.CanSend(inFlight)
}
