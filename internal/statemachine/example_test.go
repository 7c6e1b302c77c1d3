package statemachine_test

import (
	"fmt"
	"time"

	"quiclab/internal/statemachine"
	"quiclab/internal/trace"
)

// Infer a state machine from two instrumented runs and inspect it the
// way the paper's root-cause analysis does.
func Example() {
	run1 := trace.New()
	run1.Transition(10*time.Millisecond, "Init", "SlowStart")
	run1.Transition(50*time.Millisecond, "SlowStart", "CongestionAvoidance")
	run2 := trace.New()
	run2.Transition(10*time.Millisecond, "Init", "SlowStart")
	run2.Transition(30*time.Millisecond, "SlowStart", "Recovery")
	run2.Transition(60*time.Millisecond, "Recovery", "CongestionAvoidance")

	tr1 := statemachine.FromRecorder(run1, 100*time.Millisecond)
	tr2 := statemachine.FromRecorder(run2, 100*time.Millisecond)
	model := statemachine.Infer([]statemachine.Trace{tr1, tr2})
	fmt.Printf("p(SlowStart -> CongestionAvoidance) = %.1f\n",
		model.TransitionProb("SlowStart", "CongestionAvoidance"))
	fmt.Printf("time in CongestionAvoidance: %.0f%%\n",
		100*model.TimeFraction("CongestionAvoidance"))

	ivs := statemachine.MineInvariants([][]string{tr1.Path(), tr2.Path()})
	for _, iv := range ivs {
		if iv.A == "Init" && iv.B == "SlowStart" && iv.Kind == statemachine.AlwaysFollowedBy {
			fmt.Println("invariant:", iv)
		}
	}
	// Output:
	// p(SlowStart -> CongestionAvoidance) = 0.5
	// time in CongestionAvoidance: 45%
	// invariant: Init AFby SlowStart
}

// Diff two environments' models to find what changed — the paper's
// Fig 13 analysis in two calls.
func ExampleDiff() {
	desktop := trace.New()
	desktop.Transition(5*time.Millisecond, "Init", "CongestionAvoidance")
	mobile := trace.New()
	mobile.Transition(5*time.Millisecond, "Init", "ApplicationLimited")

	a := statemachine.Infer([]statemachine.Trace{statemachine.FromRecorder(desktop, 100*time.Millisecond)})
	b := statemachine.Infer([]statemachine.Trace{statemachine.FromRecorder(mobile, 100*time.Millisecond)})
	fmt.Println(statemachine.Diff(a, b)[0].State)
	// Output:
	// ApplicationLimited
}
