package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"quiclab/internal/device"
	"quiclab/internal/netem"
	"quiclab/internal/web"
)

// chaosScenario derives a fully seeded random scenario plus fault
// schedule: everything (network shape, workload, fault timing) comes
// from the seed, so a failing seed reproduces exactly.
func chaosScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Seed:     seed,
		RateMbps: 1 + rng.Float64()*19,
		RTT:      time.Duration(20+rng.Intn(180)) * time.Millisecond,
		LossPct:  rng.Float64() * 2,
		Page: web.Page{
			NumObjects: 1 + rng.Intn(4),
			ObjectSize: (20 + rng.Intn(180)) << 10,
		},
		Device: device.Desktop,
	}
	if rng.Intn(2) == 0 {
		sc.Jitter = time.Duration(rng.Intn(8)) * time.Millisecond
	}
	sc.Faults = netem.RandomSchedule(rng, 20*time.Second)
	// A quarter of the seeds add one harsh fault on top of the random
	// schedule — an outage long enough (or permanent) to kill the run —
	// so the failure classification and teardown paths stay exercised.
	if rng.Intn(4) == 0 {
		harsh := netem.Fault{
			At:   time.Duration(rng.Int63n(int64(3 * time.Second))),
			Kind: netem.FaultOutage,
		}
		if rng.Intn(2) == 0 {
			harsh.Duration = 5*time.Second + time.Duration(rng.Int63n(int64(40*time.Second)))
		} // else: no Duration, permanent
		sc.Faults.Faults = append(sc.Faults.Faults, harsh)
		sort.SliceStable(sc.Faults.Faults, func(i, j int) bool {
			return sc.Faults.Faults[i].At < sc.Faults.Faults[j].At
		})
	}
	return sc
}

// chaosFingerprint condenses a run's externally observable outcome so
// replay determinism can be asserted byte-for-byte.
func chaosFingerprint(res Result) string {
	var counters []string
	for _, name := range []string{"cc_rto", "cc_tlp", "declared_lost", "false_loss", "fault_injected", "spurious_rexmit"} {
		counters = append(counters, fmt.Sprintf("%s=%d", name, res.ServerTrace.Counter(name)))
	}
	return fmt.Sprintf("completed=%v plt=%v end=%v reason=%v %s",
		res.Completed, res.PLT, res.EndTime, res.FailureReason, strings.Join(counters, " "))
}

// chaosRun executes one seeded chaos run and checks the harness
// invariants: the run either completes or reports a classified failure
// within the deadline, and the simulator drains afterwards (no leaked
// self-rescheduling timers). It returns the outcome fingerprint, or an
// error naming the violated invariant. Free of *testing.T so it can run
// on an arbitrary matrix-engine worker.
func chaosRun(proto Proto, seed int64) (string, error) {
	return chaosCheck(chaosScenario(seed), proto, seed)
}

// chaosCheck is chaosRun on a given scenario.
func chaosCheck(sc Scenario, proto Proto, seed int64) (string, error) {
	res := sc.RunPLT(proto, seed)
	deadline := sc.deadline()
	if res.Completed {
		if res.FailureReason != FailNone {
			return "", fmt.Errorf("seed %d %s: completed run carries failure %v", seed, proto, res.FailureReason)
		}
		if res.PLT > deadline {
			return "", fmt.Errorf("seed %d %s: completed after the deadline (plt=%v deadline=%v)", seed, proto, res.PLT, deadline)
		}
	} else {
		if res.FailureReason == FailNone {
			return "", fmt.Errorf("seed %d %s: incomplete run with no classified failure", seed, proto)
		}
		if res.PLT != deadline {
			return "", fmt.Errorf("seed %d %s: incomplete run PLT %v not clamped to deadline %v", seed, proto, res.PLT, deadline)
		}
		if res.EndTime > deadline {
			return "", fmt.Errorf("seed %d %s: failure reported at %v, after deadline %v", seed, proto, res.EndTime, deadline)
		}
	}
	// Drain: once the leftover connections idle out or exhaust their
	// RTOs, the event queue must empty — a pending event at the horizon
	// means a timer that would self-reschedule forever. The loop absorbs
	// sim.Stop() calls fired by callbacks still completing during the
	// drain (e.g. a deadline-classified load finishing late).
	horizon := deadline + 5*time.Minute
	for res.sim.Pending() > 0 && res.sim.Now() < horizon {
		res.sim.RunUntil(horizon)
	}
	if n := res.sim.Pending(); n != 0 {
		return "", fmt.Errorf("seed %d %s: simulator did not drain (%d events pending at %v)", seed, proto, n, res.sim.Now())
	}
	// Conservation: with nothing left to run, every link has delivered
	// every packet it accepted and holds none.
	for i, l := range append(append([]*netem.Link{}, res.tb.down...), res.tb.up...) {
		if st := l.Stats(); st.Sent != st.Delivered || l.QueueLen() != 0 || l.QueuedPackets() != 0 || l.InFlight() != 0 {
			return "", fmt.Errorf("seed %d %s: link %d drained with sent=%d delivered=%d, %d bytes and %d packets queued, %d in flight",
				seed, proto, i, st.Sent, st.Delivered, l.QueueLen(), l.QueuedPackets(), l.InFlight())
		}
	}
	return chaosFingerprint(res), nil
}

// runChaos is the single-run test helper around chaosRun.
func runChaos(t *testing.T, proto Proto, seed int64) string {
	t.Helper()
	fp, err := chaosRun(proto, seed)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestChaosSchedules sweeps seeded random fault schedules (rate/delay/
// loss steps, outages, burst-loss episodes) across both transports:
// 100 seeds x 2 protocols in -short mode (250 x 2 otherwise), with every
// fifth seed replayed to assert identical outcomes. The sweep runs on
// the matrix engine — each seed is one cell — so it parallelises across
// available CPUs while fingerprints land in canonical slots.
func TestChaosSchedules(t *testing.T) {
	seeds := 250
	if testing.Short() {
		seeds = 100
	}
	for _, proto := range []Proto{QUIC, TCP} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			m := NewMatrix("chaos", Options{Quick: true})
			type outcome struct{ FP, Err string }
			outs := make([]outcome, seeds)
			for i := 0; i < seeds; i++ {
				i := i
				seed := int64(1000 + i)
				sci := m.NextScenario()
				AddCell(m, Cell{Scenario: sci, Proto: proto}, &outs[i], func(int64) outcome {
					// The chaos sweep keeps its historical explicit seeds
					// (a frozen corpus); the engine contributes the worker
					// pool and canonical result slots.
					fp, err := chaosRun(proto, seed)
					if err != nil {
						return outcome{Err: err.Error()}
					}
					if i%5 == 0 {
						fp2, err := chaosRun(proto, seed)
						if err != nil {
							return outcome{Err: err.Error()}
						}
						if fp2 != fp {
							return outcome{Err: fmt.Sprintf("seed %d: outcome not replayable:\n  first:  %s\n  second: %s", seed, fp, fp2)}
						}
					}
					return outcome{FP: fp}
				})
			}
			m.Run()
			reasons := map[FailureReason]int{}
			for i := 0; i < seeds; i++ {
				if outs[i].Err != "" {
					t.Fatal(outs[i].Err)
				}
				fp := outs[i].FP
				var reason FailureReason
				if !strings.Contains(fp, "reason=none") {
					for r := FailHandshake; r < numFailureReasons; r++ {
						if strings.Contains(fp, "reason="+r.String()+" ") {
							reason = r
						}
					}
				}
				reasons[reason]++
			}
			t.Logf("%s: %d seeds, outcomes: completed=%d handshake=%d idle=%d rto=%d deadline=%d other=%d",
				proto, seeds, reasons[FailNone], reasons[FailHandshake], reasons[FailIdleTimeout],
				reasons[FailRTOExhausted], reasons[FailDeadline], reasons[FailOther])
		})
	}
}

// TestChaosWireEncode replays the lossy, RTO- and TLP-heavy seeds of the
// chaos corpus with WireEncode on: every packet's wire image is checked
// frame by frame against the packet as it arrives (verifyWire panics on a
// difference), through the retransmissions, probes and requeues that
// those seeds drive, and the mode must leave each outcome as it was.
func TestChaosWireEncode(t *testing.T) {
	const corpus, picked = 250, 20
	for _, proto := range []Proto{QUIC, TCP} {
		type seedLoad struct {
			seed         int64
			probes, lost int
		}
		var loads []seedLoad
		for i := 0; i < corpus; i++ {
			seed := int64(1000 + i)
			tr := chaosScenario(seed).RunPLT(proto, seed).ServerTrace
			l := seedLoad{seed, tr.Counter("cc_rto") + tr.Counter("cc_tlp"), tr.Counter("declared_lost")}
			if l.probes > 0 && l.lost > 0 {
				loads = append(loads, l)
			}
		}
		sort.SliceStable(loads, func(i, j int) bool { return loads[i].probes > loads[j].probes })
		if len(loads) < picked {
			t.Fatalf("%s: only %d of %d chaos seeds both lose packets and probe", proto, len(loads), corpus)
		}
		probes := 0
		for _, l := range loads[:picked] {
			probes += l.probes
			plain, err := chaosRun(proto, l.seed)
			if err != nil {
				t.Fatal(err)
			}
			sc := chaosScenario(l.seed)
			sc.WireEncode = true
			wired, err := chaosCheck(sc, proto, l.seed)
			if err != nil {
				t.Fatal(err)
			}
			if wired != plain {
				t.Fatalf("seed %d %s: WireEncode changed the outcome:\n  plain: %s\n  wire:  %s", l.seed, proto, plain, wired)
			}
		}
		t.Logf("%s: %d seeds with WireEncode, %d RTOs and TLPs between them", proto, picked, probes)
	}
}

// TestOutageRecoveryAfterHandoff is the acceptance scenario: a 2s
// mid-transfer outage on a cellular-like profile (the emulated handoff)
// delays but does not kill either protocol — both complete once the
// link returns.
func TestOutageRecoveryAfterHandoff(t *testing.T) {
	sc := Scenario{
		Seed: 42, RateMbps: 4, RTT: 61 * time.Millisecond, // Verizon-LTE-like
		Page:   web.Page{NumObjects: 2, ObjectSize: 400 << 10},
		Device: device.Desktop,
		Faults: &netem.Schedule{Faults: []netem.Fault{
			{At: 500 * time.Millisecond, Kind: netem.FaultOutage, Duration: 2 * time.Second},
		}},
	}
	for _, proto := range []Proto{QUIC, TCP} {
		res := sc.RunPLT(proto, 42)
		if !res.Completed {
			t.Fatalf("%s did not recover from the outage (failure=%v)", proto, res.FailureReason)
		}
		// The outage covers [0.5s, 2.5s] of a ~1.6s transfer; a completed
		// load must have waited it out, and recovery should not cost tens
		// of seconds.
		if res.PLT < 2*time.Second {
			t.Fatalf("%s finished at %v, inside the outage window", proto, res.PLT)
		}
		if res.PLT > 20*time.Second {
			t.Fatalf("%s took %v to recover from a 2s outage", proto, res.PLT)
		}
		if got := res.ServerTrace.Counter("fault_injected"); got != 2 {
			t.Fatalf("%s: fault_injected counter = %d, want 2 (outage + clear)", proto, got)
		}
	}
}

// TestPermanentOutageClassified: a permanent mid-transfer outage cannot
// complete; the transports must give up with a classified failure well
// before the deadline instead of hanging.
func TestPermanentOutageClassified(t *testing.T) {
	sc := Scenario{
		Seed: 42, RateMbps: 4, RTT: 61 * time.Millisecond,
		Page:   web.Page{NumObjects: 2, ObjectSize: 400 << 10},
		Device: device.Desktop,
		Faults: &netem.Schedule{Faults: []netem.Fault{
			{At: 500 * time.Millisecond, Kind: netem.FaultOutage}, // no Duration: permanent
		}},
	}
	for _, proto := range []Proto{QUIC, TCP} {
		res := sc.RunPLT(proto, 42)
		if res.Completed {
			t.Fatalf("%s completed through a permanent outage", proto)
		}
		switch res.FailureReason {
		case FailIdleTimeout, FailRTOExhausted, FailOther:
		default:
			t.Fatalf("%s: failure %v, want a transport-level classification", proto, res.FailureReason)
		}
		if res.EndTime >= sc.deadline() {
			t.Fatalf("%s: gave up only at the deadline (%v)", proto, res.EndTime)
		}
	}
}

// TestDeadlineFailureClassified covers the deadline path: a fault that
// degrades the link far below the nominal rate keeps traffic flowing
// (no transport-level failure) but cannot finish in time, so the run is
// reported — not hung — with PLT clamped to the deadline.
func TestDeadlineFailureClassified(t *testing.T) {
	sc := Scenario{
		Seed: 7, RateMbps: 20, RTT: 40 * time.Millisecond,
		Page:   web.Page{NumObjects: 1, ObjectSize: 2 << 20},
		Device: device.Desktop,
		Faults: &netem.Schedule{Faults: []netem.Fault{
			{At: 300 * time.Millisecond, Kind: netem.FaultRate, RateBps: 100_000},
		}},
	}
	// The deadline assumes the nominal 20Mbps; at 100kbps the 2MB page
	// needs ~160s, far beyond it, while segments keep flowing.
	for _, proto := range []Proto{QUIC, TCP} {
		res := sc.RunPLT(proto, 7)
		if res.Completed {
			t.Fatalf("%s completed 2MB at 100kbps before %v?", proto, sc.deadline())
		}
		if res.FailureReason != FailDeadline {
			t.Fatalf("%s: failure %v, want %v", proto, res.FailureReason, FailDeadline)
		}
		if res.PLT != sc.deadline() {
			t.Fatalf("%s: PLT %v not clamped to deadline %v", proto, res.PLT, sc.deadline())
		}
	}
	// Aggregate accounting: every incomplete run is classified and the
	// per-reason counts add up.
	cm := sc.CompareWith(Options{Rounds: 2, Seed: sc.Seed})
	if cm.Incomplete != 4 {
		t.Fatalf("Incomplete = %d, want 4 (2 rounds x 2 protocols)", cm.Incomplete)
	}
	total := 0
	for _, n := range cm.Failures {
		total += n
	}
	if total != cm.Incomplete {
		t.Fatalf("sum(Failures) = %d != Incomplete = %d (%s)", total, cm.Incomplete, cm.FailureSummary())
	}
	if cm.Failures[FailDeadline] != 4 {
		t.Fatalf("FailureSummary = %q, want deadline=4", cm.FailureSummary())
	}
}
