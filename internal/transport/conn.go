// Package transport is the sender skeleton under both stacks: everything in
// a connection or endpoint that is lab policy rather than protocol mechanism
// — hardening (idle teardown, classified close, retry and RTO ladders), the
// RTT estimator and per-connection instruments, and record recycling. quic
// and tcp embed Conn and Endpoint by value and keep only what the paper
// contrasts (DESIGN.md "What the two transports share"). Nothing here
// branches on which stack is calling.
package transport

import (
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/metrics"
	"quiclab/internal/profile"
	"quiclab/internal/sim"
	"quiclab/internal/trace"
)

// DefaultIdleTimeout tears down connections that receive nothing for this
// long (gQUIC's default idle_connection_state_lifetime).
const DefaultIdleTimeout = 30 * time.Second

// Hooks are the stack's callbacks into its own protocol machinery, bound
// once per connection record (a method value allocates at every use).
type Hooks struct {
	// Teardown stops the stack's own timers and takes the connection out
	// of its endpoint's live set (Endpoint.Remove). Close runs it once.
	Teardown func()
	// LastWords, if set, runs in an abnormal close after it is classified
	// and traced and before teardown: QUIC sends its ConnectionClose here.
	LastWords func(reason string)
	// Classify computes the connection's current stall state.
	Classify func() profile.State
}

// Conn is the shared half of a connection record.
type Conn struct {
	Estimator

	// OnClosed is invoked when the connection is torn down abnormally
	// (idle timeout, handshake failure, RTO exhaustion, peer close) with
	// the classified reason. A plain Close does not fire it.
	OnClosed func(reason string)

	sim    *sim.Simulator
	tracer *trace.Recorder
	hooks  Hooks

	closed      bool
	closeReason string // set on abnormal teardown

	idleTimeout  time.Duration
	idleTimer    sim.Timer
	idleAlarmFn  func()
	lastActivity time.Duration // last packet receipt (or creation)

	fired       bool // OnConnected callbacks have run
	onConnected []func()

	mInFlight *metrics.Series
	// prof attributes virtual time to exclusive stall states. Nil unless
	// the recorder profiles; every use is nil-guarded.
	prof *profile.Profiler
}

// Bind installs the stack's hooks on a fresh record.
func (c *Conn) Bind(h Hooks) {
	c.hooks = h
	c.idleAlarmFn = c.onIdleAlarm
}

// Retired returns the scrubbed base of a dead record: only the bound
// callbacks and the (emptied) OnConnected storage survive a recycle.
func (c *Conn) Retired() Conn {
	clear(c.onConnected)
	return Conn{hooks: c.hooks, idleAlarmFn: c.idleAlarmFn, onConnected: c.onConnected[:0]}
}

// NewController is the one way a connection picks its congestion
// controller: the registry's algo in its standard configuration if set,
// else the stack's calibrated Cubic, reporting to tr.
func NewController(algo string, mss int, cubic cc.CubicConfig, tr *trace.Recorder) cc.Controller {
	if algo != "" {
		return cc.MustNew(algo, cc.Config{MSS: mss, Tracer: tr})
	}
	cubic.Tracer = tr
	return cc.NewCubic(cubic)
}

// --- Classified close -----------------------------------------------------

// Closed reports whether the connection has been torn down.
func (c *Conn) Closed() bool { return c.closed }

// CloseReason returns the abnormal-teardown classification, or "" if the
// connection is open or was closed normally.
func (c *Conn) CloseReason() string { return c.closeReason }

// Close tears the connection down and stops all timers.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.prof.Finish(c.sim.Now())
	c.idleTimer.Stop()
	c.hooks.Teardown()
}

// Abort tears the connection down abnormally: it records the classified
// reason, emits the conn_closed event, lets the
// stack say its last words, closes, and fires OnClosed — once; aborting a
// closed connection does nothing.
func (c *Conn) Abort(reason string) {
	if c.closed {
		return
	}
	c.closeReason = reason
	c.tracer.ConnClosed(c.sim.Now(), reason)
	if c.hooks.LastWords != nil {
		c.hooks.LastWords(reason)
	}
	cb := c.OnClosed
	c.Close()
	if cb != nil {
		cb(reason)
	}
}

// --- Idle teardown ----------------------------------------------------------

// Touch records packet receipt at now as activity.
func (c *Conn) Touch(now time.Duration) { c.lastActivity = now }

// ArmIdle (re)arms the idle-teardown alarm for lastActivity + the idle
// timeout. The alarm re-arms itself while traffic keeps arriving.
func (c *Conn) ArmIdle() {
	if c.idleTimeout <= 0 || c.closed {
		return
	}
	c.idleTimer = c.sim.Reschedule(c.idleTimer, c.lastActivity+c.idleTimeout-c.sim.Now(), c.idleAlarmFn)
}

func (c *Conn) onIdleAlarm() {
	if c.closed {
		return
	}
	if c.sim.Now()-c.lastActivity >= c.idleTimeout {
		c.Abort(trace.ReasonIdleTimeout)
		return
	}
	c.ArmIdle()
}

// --- OnConnected queue ------------------------------------------------------

// OnConnected registers fn to run when the connection becomes able to
// carry data (immediately if it already can).
func (c *Conn) OnConnected(fn func()) {
	if c.fired {
		fn()
		return
	}
	c.onConnected = append(c.onConnected, fn)
}

// FireConnected runs the queued OnConnected callbacks, once, in
// registration order. The stack calls it last in its handshake completion.
func (c *Conn) FireConnected() {
	c.fired = true
	for i, fn := range c.onConnected {
		c.onConnected[i] = nil
		fn()
	}
	c.onConnected = c.onConnected[:0]
}

// --- Instruments --------------------------------------------------------------

// SampleInFlight records the bytes-outstanding series. The nil check
// keeps the disabled path from touching the clock.
func (c *Conn) SampleInFlight(bytes int) {
	if c.mInFlight == nil {
		return
	}
	c.mInFlight.Record(c.sim.Now(), float64(bytes))
}

// Reclassify timestamps a stall-state transition if profiling is on.
func (c *Conn) Reclassify() {
	if c.prof == nil {
		return
	}
	c.prof.Transition(c.sim.Now(), c.hooks.Classify())
}
