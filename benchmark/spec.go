package main

// The metric tables. BENCHMARK.json at the root of the repository says
// the same (a test holds the two together); the tables live here so that
// -compare needs no file beyond the two results it compares.

// metricSpec describes one metric: its unit, which direction is better,
// and for end-to-end metrics the share of the parent's median by which
// it may worsen before the change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run times laps for unless -seconds says
// otherwise; BENCHMARK.json's run_seconds.
const runSeconds = 15

// endToEnd are the gated metrics, per workload. failed_share is not
// among them because a gated metric may never be zero; failures travel
// in the result's attempted/failed counts and the exit code instead.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.20},
	{"slowest_cell_ms", "ms", "lower", 0.25},
	{"allocs_per_cell", "allocs", "lower", 0.02},
	{"alloc_kb_per_cell", "KiB", "lower", 0.02},
}

// perLayer are the traced run's metrics, <layer>.<name>. They have no
// bound: they say where a change in an end-to-end metric came from.
var perLayer = []metricSpec{
	{"sim.events_per_cell", "count", "lower", 0},
	{"sim.pending_mean", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.timer_rearm_ns", "ns", "lower", 0},
	{"sim.share", "ratio", "lower", 0},

	{"netem.pkts_per_cell", "count", "lower", 0},
	{"netem.drops_per_cell", "count", "lower", 0},
	{"netem.reordered_per_cell", "count", "lower", 0},
	{"netem.delivered_ratio", "ratio", "higher", 0},
	{"netem.ns_per_pkt", "ns", "lower", 0},
	{"netem.share", "ratio", "lower", 0},

	{"cc.ns_per_ack", "ns", "lower", 0},
	{"cc.share", "ratio", "lower", 0},

	{"quic.ms_per_cell", "ms", "lower", 0},
	{"quic.us_per_kb", "us/KiB", "lower", 0},
	{"quic.handle_ns_per_pkt", "ns", "lower", 0},
	{"quic.timer_share", "ratio", "lower", 0},
	{"quic.declared_lost_per_cell", "count", "lower", 0},
	{"quic.false_loss_per_cell", "count", "lower", 0},
	{"quic.rto_per_cell", "count", "lower", 0},
	{"quic.tlp_per_cell", "count", "lower", 0},
	{"quic.goodput_ratio", "ratio", "higher", 0},

	{"tcp.ms_per_cell", "ms", "lower", 0},
	{"tcp.us_per_kb", "us/KiB", "lower", 0},
	{"tcp.handle_ns_per_pkt", "ns", "lower", 0},
	{"tcp.timer_share", "ratio", "lower", 0},
	{"tcp.declared_lost_per_cell", "count", "lower", 0},
	{"tcp.spurious_rexmit_per_cell", "count", "lower", 0},
	{"tcp.rto_per_cell", "count", "lower", 0},
	{"tcp.tlp_per_cell", "count", "lower", 0},
	{"tcp.goodput_ratio", "ratio", "higher", 0},

	{"wire.encode_verify_ms_per_cell", "ms", "lower", 0},

	{"web.ms_per_cell", "ms", "lower", 0},
	{"web.us_per_object", "us", "lower", 0},
	{"web.sim_plt_ms_mean", "ms", "lower", 0},

	{"core.build_us", "us", "lower", 0},
	{"core.scenario_overhead_ms_per_cell", "ms", "lower", 0},
	{"core.sim_s_per_wall_s", "ratio", "higher", 0},
	{"core.engine_overhead_ms_per_cell", "ms", "lower", 0},
	{"core.parallel_efficiency", "ratio", "higher", 0},
	{"core.cells_per_s_per_worker", "cells/s", "higher", 0},
	{"core.bundle_ms_per_cell", "ms", "lower", 0},
	{"core.heap_inuse_mb_max", "MiB", "lower", 0},

	{"trace.ms_per_cell", "ms", "lower", 0},
	{"trace.events_per_cell", "count", "lower", 0},
	{"trace.alloc_kb_per_cell", "KiB", "lower", 0},
	{"trace.jsonl_write_ms_per_cell", "ms", "lower", 0},
	{"metrics.ms_per_cell", "ms", "lower", 0},
	{"metrics.points_per_cell", "count", "lower", 0},
	{"profile.ms_per_cell", "ms", "lower", 0},
	{"statemachine.infer_ms_per_cell", "ms", "lower", 0},

	{"obs.ledger_ms_per_cell", "ms", "lower", 0},
	{"obs.checkpoint_ms_per_cell", "ms", "lower", 0},
	{"obs.ledger_bytes_per_cell", "bytes", "lower", 0},
	{"obs.checkpoint_bytes_per_cell", "bytes", "lower", 0},
	{"obs.findings_per_cell", "count", "lower", 0},

	{"tracing_overhead_ratio", "ratio", "lower", 0},
}
