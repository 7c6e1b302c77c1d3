package profile

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestStateNames(t *testing.T) {
	seen := map[string]State{}
	for i := 0; i < NumStates; i++ {
		s := StateByIndex(i)
		name := s.String()
		if name == "" || strings.Contains(name, "state(") {
			t.Fatalf("state %d has no name", i)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("states %v and %v share the name %q", prev, s, name)
		}
		seen[name] = s
	}
	if got := State(200).String(); got != "state(200)" {
		t.Fatalf("out-of-range state name = %q", got)
	}
}

func TestNilProfilerIsNoOp(t *testing.T) {
	var p *Profiler
	p.Transition(time.Second, StateTransfer)
	p.Finish(2 * time.Second)
	if p.Finished() {
		t.Fatal("nil profiler reports finished")
	}
	if b := p.Budget(); b != (Budget{}) {
		t.Fatalf("nil profiler budget = %+v, want zero", b)
	}
}

func TestBudgetExactness(t *testing.T) {
	p := New(0, StateHandshake)
	p.Transition(30*time.Millisecond, StateTransfer)
	p.Transition(50*time.Millisecond, StateCwndLimited)
	p.Transition(55*time.Millisecond, StateTransfer)
	p.Transition(90*time.Millisecond, StateAppLimited)
	p.Finish(100 * time.Millisecond)

	b := p.Budget()
	if b.LifetimeNS != int64(100*time.Millisecond) {
		t.Fatalf("lifetime = %d, want %d", b.LifetimeNS, int64(100*time.Millisecond))
	}
	if b.Sum() != b.LifetimeNS {
		t.Fatalf("components sum to %d, lifetime %d", b.Sum(), b.LifetimeNS)
	}
	if b.HandshakeNS != int64(30*time.Millisecond) {
		t.Fatalf("handshake_ns = %d", b.HandshakeNS)
	}
	if b.TransferNS != int64(55*time.Millisecond) {
		t.Fatalf("transfer_ns = %d", b.TransferNS)
	}
	if b.CwndLimitedNS != int64(5*time.Millisecond) {
		t.Fatalf("cwnd_limited_ns = %d", b.CwndLimitedNS)
	}
	if b.AppLimitedNS != int64(10*time.Millisecond) {
		t.Fatalf("app_limited_ns = %d", b.AppLimitedNS)
	}
	if b.Transitions != 4 {
		t.Fatalf("transitions = %d, want 4", b.Transitions)
	}
}

// TestBudgetExactnessRandom drives a random walk over all states and
// checks the invariant holds for any transition sequence.
func TestBudgetExactnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		now := time.Duration(rng.Intn(1000)) * time.Microsecond
		start := now
		p := New(now, StateHandshake)
		for i := 0; i < 200; i++ {
			now += time.Duration(rng.Intn(5000)) * time.Nanosecond
			p.Transition(now, State(rng.Intn(NumStates)))
		}
		now += time.Duration(rng.Intn(5000)) * time.Nanosecond
		p.Finish(now)
		b := p.Budget()
		if b.LifetimeNS != int64(now-start) {
			t.Fatalf("trial %d: lifetime %d, want %d", trial, b.LifetimeNS, int64(now-start))
		}
		if b.Sum() != b.LifetimeNS {
			t.Fatalf("trial %d: sum %d != lifetime %d", trial, b.Sum(), b.LifetimeNS)
		}
	}
}

func TestSameStateTransitionFree(t *testing.T) {
	p := New(0, StateHandshake)
	p.Transition(time.Millisecond, StateHandshake)
	p.Transition(2*time.Millisecond, StateHandshake)
	p.Finish(3 * time.Millisecond)
	b := p.Budget()
	if b.Transitions != 0 {
		t.Fatalf("same-state transitions counted: %d", b.Transitions)
	}
	if b.HandshakeNS != int64(3*time.Millisecond) {
		t.Fatalf("handshake_ns = %d", b.HandshakeNS)
	}
}

func TestLongestStall(t *testing.T) {
	p := New(0, StateHandshake) // 10ms handshake stall
	p.Transition(10*time.Millisecond, StateTransfer)
	// A 40ms contiguous cwnd-limited stall split across several
	// same-state reclassifications.
	p.Transition(20*time.Millisecond, StateCwndLimited)
	p.Transition(35*time.Millisecond, StateCwndLimited)
	p.Transition(60*time.Millisecond, StateTransfer)
	// A shorter recovery stall afterwards.
	p.Transition(70*time.Millisecond, StateRecovery)
	p.Finish(90 * time.Millisecond)

	b := p.Budget()
	if b.LongestStallState != "cwnd_limited" {
		t.Fatalf("longest stall state = %q, want cwnd_limited", b.LongestStallState)
	}
	if b.LongestStallNS != int64(40*time.Millisecond) {
		t.Fatalf("longest stall = %d, want %d", b.LongestStallNS, int64(40*time.Millisecond))
	}
	if b.LongestStallAtNS != int64(20*time.Millisecond) {
		t.Fatalf("longest stall at = %d, want %d", b.LongestStallAtNS, int64(20*time.Millisecond))
	}
}

// TestContiguousStallAcrossStates: back-to-back stalls in different
// states are separate stalls, not one merged span.
func TestContiguousStallAcrossStates(t *testing.T) {
	p := New(0, StateTransfer)
	p.Transition(10*time.Millisecond, StateCwndLimited)
	p.Transition(25*time.Millisecond, StateFlowCtlConn) // new stall, not +15ms
	p.Transition(45*time.Millisecond, StateTransfer)
	p.Finish(50 * time.Millisecond)
	b := p.Budget()
	if b.LongestStallState != "flowctl_conn" || b.LongestStallNS != int64(20*time.Millisecond) {
		t.Fatalf("longest stall = %s/%d, want flowctl_conn/%d",
			b.LongestStallState, b.LongestStallNS, int64(20*time.Millisecond))
	}
}

func TestFinishIdempotent(t *testing.T) {
	p := New(0, StateTransfer)
	p.Finish(10 * time.Millisecond)
	p.Transition(20*time.Millisecond, StateRecovery) // ignored
	p.Finish(30 * time.Millisecond)                  // ignored
	b := p.Budget()
	if b.LifetimeNS != int64(10*time.Millisecond) || b.RecoveryNS != 0 {
		t.Fatalf("post-finish mutation leaked: %+v", b)
	}
	if !p.Finished() {
		t.Fatal("Finished() = false after Finish")
	}
}

func TestBudgetJSONFields(t *testing.T) {
	p := New(0, StateHandshake)
	p.Transition(time.Millisecond, StateTransfer)
	p.Finish(2 * time.Millisecond)
	data, err := json.Marshal(p.Budget())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"handshake_ns", "transfer_ns", "cwnd_limited_ns", "pacing_gated_ns",
		"flowctl_conn_ns", "flowctl_stream_ns", "recovery_ns", "rto_wait_ns",
		"app_limited_ns", "lifetime_ns", "transitions", "longest_stall_state",
	} {
		if !strings.Contains(string(data), `"`+key+`"`) {
			t.Errorf("budget JSON missing %q: %s", key, data)
		}
	}
}

// TestStallSubsets: StallNS is every transport-blocked component;
// BlockedNS is the hard-blocked subset (no cwnd/pacer waits).
func TestStallSubsets(t *testing.T) {
	b := Budget{
		HandshakeNS: 1, TransferNS: 2, CwndLimitedNS: 4, PacingGatedNS: 8,
		FlowCtlConnNS: 16, FlowCtlStreamNS: 32, RecoveryNS: 64, RTOWaitNS: 128,
		AppLimitedNS: 256, LifetimeNS: 511,
	}
	if got := b.StallNS(); got != 4+8+16+32+64+128 {
		t.Errorf("StallNS = %d, want %d", got, 4+8+16+32+64+128)
	}
	if got := b.BlockedNS(); got != 16+32+64+128 {
		t.Errorf("BlockedNS = %d, want %d", got, 16+32+64+128)
	}
	if got := b.Sum(); got != b.LifetimeNS {
		t.Errorf("Sum = %d, want lifetime %d", got, b.LifetimeNS)
	}
}

// TestDisabledZeroAlloc pins the zero-cost discipline with
// AllocsPerRun, mirroring the benchmark guard.
func TestDisabledZeroAlloc(t *testing.T) {
	var p *Profiler
	if n := testing.AllocsPerRun(100, func() {
		p.Transition(time.Second, StateRecovery)
		p.Finish(time.Second)
	}); n != 0 {
		t.Fatalf("disabled profiler allocates %v per op", n)
	}
}

func TestTransitionZeroAlloc(t *testing.T) {
	p := New(0, StateHandshake)
	now := time.Duration(0)
	s := StateTransfer
	if n := testing.AllocsPerRun(100, func() {
		now += time.Microsecond
		p.Transition(now, s)
		if s == StateTransfer {
			s = StateCwndLimited
		} else {
			s = StateTransfer
		}
	}); n != 0 {
		t.Fatalf("enabled Transition allocates %v per op", n)
	}
}

// BenchmarkProfileDisabled guards the nil-receiver fast path: one nil
// check, zero allocations.
func BenchmarkProfileDisabled(b *testing.B) {
	var p *Profiler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Transition(time.Duration(i), StateTransfer)
	}
}

// BenchmarkProfileTransition guards the enabled hot path: alternating
// real transitions must stay allocation-free.
func BenchmarkProfileTransition(b *testing.B) {
	p := New(0, StateHandshake)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := StateTransfer
		if i&1 == 1 {
			s = StateCwndLimited
		}
		p.Transition(time.Duration(i)*time.Microsecond, s)
	}
}
