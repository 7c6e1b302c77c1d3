package main

import (
	"fmt"
	"math/rand"
	"time"

	"quiclab/internal/core"
	"quiclab/internal/device"
	"quiclab/internal/web"
)

// cell is one page load: a scenario, the protocol that loads it and the
// seed of its emulated network. The paired QUIC and TCP cells of one
// scenario share a seed, as the matrix engine's paired arms do.
type cell struct {
	name  string
	sc    core.Scenario
	proto core.Proto
	seed  int64
}

func (c cell) pageBytes() int { return c.sc.Page.TotalBytes() }

// rtt is the scenario's emulated round-trip time (core's default when
// the scenario leaves it zero).
func (c cell) rtt() time.Duration {
	if c.sc.RTT == 0 {
		return core.DefaultRTT + c.sc.ExtraDelay
	}
	return c.sc.RTT + c.sc.ExtraDelay
}

// workload is a named, fixed list of cells; a lap runs the list once.
// The names are cited by later issues and must not change.
type workload struct {
	name string
	why  string
	// scenarios lists the lap's scenarios; every one becomes a QUIC and
	// a TCP cell. For sweep they are only the ladder's probe cells (see
	// sweepProbe) — its laps run experiments.
	scenarios func() []core.Scenario
	sweep     bool
	// pinned keeps the per-cell seeds — the loss and jitter patterns —
	// the same whatever -seed says; see pinnedSeed.
	pinned bool
}

// pinnedSeed is the base of the per-cell seeds of a pinned workload.
// TCP's host cost under random loss is bimodal in the loss pattern: the
// 8 MiB, 1 % loss cell takes 6-8 ms of host time on two patterns in
// three and 40-340 ms on the third, at the same simulated PLT (README,
// "Pinned loss patterns"). With patterns drawn from -seed, cells_per_s
// of lossy_reorder moved by half between seeds on unchanged code, which
// no bound survives; so the patterns are fixed and -seed only shuffles
// the order in which a lap runs its cells.
const pinnedSeed = 1

var protos = []core.Proto{core.QUIC, core.TCP}

// sweepExperiments is the Quick-mode experiment list of the sweep
// workload: heatmaps over rate x size and rate x count, loss and delay,
// devices, cellular profiles, proxying and the cellular probe.
var sweepExperiments = []string{"fig6a", "fig6b", "fig8", "fig12", "fig14", "fig18", "table5"}

// sweepOrder is the order a lap runs the sweep's experiments in under
// -seed base. Their cells draw loss patterns, so the sweep is pinned
// like lossy_reorder and the seed only shuffles.
func sweepOrder(base int64) []string {
	ids := append([]string(nil), sweepExperiments...)
	rand.New(rand.NewSource(base)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

func page(objects, size int) web.Page { return web.Page{NumObjects: objects, ObjectSize: size} }

var workloads = []workload{
	{
		name: "bulk",
		why:  "one large object on a clean path: per-packet work (sim heap, netem link, send/ack, cc) does almost all the work, as in table6/fig15",
		scenarios: func() []core.Scenario {
			var out []core.Scenario
			for _, rate := range []float64{10, 100} {
				for _, size := range []int{1 << 20, 8 << 20} {
					out = append(out, core.Scenario{RateMbps: rate, Page: page(1, size), Device: device.Desktop})
				}
			}
			return out
		},
	},
	{
		name: "many_objects",
		why:  "50-200 small objects at 50 Mbps (fig6b shape): stream scheduling and web bookkeeping dominate, per-packet work is small",
		scenarios: func() []core.Scenario {
			var out []core.Scenario
			for _, n := range []int{50, 100, 200} {
				for _, size := range []int{5 << 10, 10 << 10} {
					out = append(out, core.Scenario{RateMbps: 50, Page: page(n, size), Device: device.Desktop})
				}
			}
			return out
		},
	},
	{
		name:   "lossy_reorder",
		why:    "loss, jitter and long RTTs: timers (loss/TLP/RTO re-arm churn) and the receive path (ranges, NACK/DSACK, retransmission) work hardest",
		pinned: true,
		scenarios: func() []core.Scenario {
			var out []core.Scenario
			for _, loss := range []float64{0.1, 1} {
				for _, jitter := range []time.Duration{0, 10 * time.Millisecond} {
					for _, rtt := range []time.Duration{36 * time.Millisecond, 112 * time.Millisecond} {
						out = append(out, core.Scenario{RateMbps: 50, LossPct: loss, Jitter: jitter, RTT: rtt,
							Page: page(1, 1<<20), Device: device.Desktop})
					}
				}
			}
			// table6's condition.
			return append(out, core.Scenario{RateMbps: 100, LossPct: 1, Page: page(1, 8<<20), Device: device.Desktop})
		},
	},
	{
		name: "instrumented",
		why:  "1 MiB loads with TraceEvents, Metrics and Profile on, each written as a bundle: trace/metrics/profile/statemachine and bundle I/O do most of the work",
		scenarios: func() []core.Scenario {
			var out []core.Scenario
			for _, rate := range []float64{10, 50, 100} {
				out = append(out, core.Scenario{RateMbps: rate, Page: page(1, 1<<20), Device: device.Desktop,
					TraceEvents: true, Metrics: true, Profile: true})
			}
			return out
		},
	},
	{
		name:      "sweep",
		why:       "seven Quick experiments through the matrix engine (one worker) with a run ledger: pooled testbeds and per-cell engine/obs overhead dominate small cells",
		scenarios: sweepProbe,
		sweep:     true,
		pinned:    true,
	},
}

// sweepProbe is what the ladder's rungs 0-5 run for the sweep workload.
// The sweep's own cells are built inside core's experiments and cannot
// be rebuilt from exported constructors, so the lower rungs run direct
// (no proxy, no cellular profile) scenarios in the shape of those
// experiments: fig6a's corners, fig6b's widest page, fig8's loss and
// delay, fig12's slow device.
func sweepProbe() []core.Scenario {
	return []core.Scenario{
		{RateMbps: 10, Page: page(1, 10<<10), Device: device.Desktop},
		{RateMbps: 100, Page: page(1, 10<<10), Device: device.Desktop},
		{RateMbps: 10, Page: page(1, 1<<20), Device: device.Desktop},
		{RateMbps: 100, Page: page(1, 1<<20), Device: device.Desktop},
		{RateMbps: 100, Page: page(100, 10<<10), Device: device.Desktop},
		{RateMbps: 100, LossPct: 1, Page: page(1, 1<<20), Device: device.Desktop},
		{RateMbps: 100, ExtraDelay: 50 * time.Millisecond, Page: page(1, 1<<20), Device: device.Desktop},
		{RateMbps: 50, Page: page(1, 1<<20), Device: device.MotoG},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seedBase is the base of the workload's per-cell seeds under -seed base.
func (w workload) seedBase(base int64) int64 {
	if w.pinned {
		return pinnedSeed
	}
	return base
}

// cells expands the workload's scenarios into its seeded cell list, a
// QUIC and a TCP cell per scenario, in an order shuffled by base (the
// -seed flag). The program under test only ever sees the derived
// per-cell seeds.
func (w workload) cells(base int64) []cell {
	scs := w.scenarios()
	out := make([]cell, 0, 2*len(scs))
	for _, p := range protos {
		for i, sc := range scs {
			seed := core.CellSeed(w.seedBase(base), w.name, i, 0)
			sc.Seed = seed
			out = append(out, cell{name: cellName(p, sc), sc: sc, proto: p, seed: seed})
		}
	}
	rand.New(rand.NewSource(base)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func cellName(p core.Proto, sc core.Scenario) string {
	name := fmt.Sprintf("%s/%gMbps/%dx%dKiB", p, sc.RateMbps, sc.Page.NumObjects, sc.Page.ObjectSize>>10)
	if sc.LossPct > 0 {
		name += fmt.Sprintf("/loss%g%%", sc.LossPct)
	}
	if sc.Jitter > 0 {
		name += fmt.Sprintf("/jitter%s", sc.Jitter)
	}
	if sc.RTT > 0 {
		name += fmt.Sprintf("/rtt%s", sc.RTT)
	}
	if sc.ExtraDelay > 0 {
		name += fmt.Sprintf("/delay+%s", sc.ExtraDelay)
	}
	if sc.Device.Name != device.Desktop.Name {
		name += "/" + sc.Device.Name
	}
	return name
}
