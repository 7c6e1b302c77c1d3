package cc

import (
	"fmt"
	"sort"

	"quiclab/internal/trace"
)

// Config is the generic, transport-supplied parameterisation every
// registered algorithm factory receives: the packet size and the
// recorder. Algorithm-specific tuning (MACW, N-connection emulation,
// HyStart, ...) stays on the concrete constructors — the
// registry builds each algorithm in its standard, single-connection
// configuration so a tournament compares algorithms, not calibrations.
type Config struct {
	// MSS is the maximum payload bytes per packet (0 = 1448).
	MSS int
	// Tracer receives state transitions and cwnd samples, and registers
	// the time series on its collector. May be nil.
	Tracer *trace.Recorder
}

// Factory builds one controller instance.
type Factory func(cfg Config) Controller

// registry maps algorithm name -> factory. Registration happens in init
// functions (one per algorithm file), so the map is read-only after
// package initialisation and needs no locking.
var registry = map[string]Factory{}

// Register adds a named algorithm to the registry. It panics on a
// duplicate or empty name — both are programmer errors at init time.
func Register(name string, f Factory) {
	if name == "" {
		panic("cc: Register with empty algorithm name")
	}
	if f == nil {
		panic("cc: Register with nil factory for " + name)
	}
	if _, dup := registry[name]; dup {
		panic("cc: duplicate Register of algorithm " + name)
	}
	registry[name] = f
}

// New builds a controller by algorithm name. Unknown names return an
// error listing the registered algorithms (what the CLIs print before
// exiting 2).
func New(name string, cfg Config) (Controller, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown congestion-control algorithm %q (registered: %v)",
			name, Algorithms())
	}
	if cfg.MSS == 0 {
		cfg.MSS = 1448
	}
	return f(cfg), nil
}

// MustNew is New for call sites whose name was already validated (the
// transports, after CLI/experiment-layer validation). It panics on an
// unknown name.
func MustNew(name string, cfg Config) Controller {
	c, err := New(name, cfg)
	if err != nil {
		panic("cc: " + err.Error())
	}
	return c
}

// Valid reports whether name is a registered algorithm.
func Valid(name string) bool {
	_, ok := registry[name]
	return ok
}

// Algorithms returns the registered algorithm names, sorted — the
// canonical iteration order for the conformance suite and the
// tournament's axes.
func Algorithms() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	// The two controllers the paper studies, in their standard
	// single-connection shapes. The calibrated gQUIC-34 Cubic (MACW,
	// N=2 emulation, ssthresh bug) remains reachable through
	// CubicConfig; "cubic" here is plain Cubic with the features Linux
	// and gQUIC share: HyStart, PRR, pacing.
	Register("cubic", func(cfg Config) Controller {
		return NewCubic(CubicConfig{
			MSS:                cfg.MSS,
			InitialCwndPackets: 10,
			Connections:        1,
			HyStart:            true,
			PRR:                true,
			Pacing:             true,
			Tracer:             cfg.Tracer,
		})
	})
	Register("bbr", func(cfg Config) Controller {
		return newBBR(cfg.MSS, cfg.Tracer)
	})
}
