package trace_test

import (
	"slices"
	"testing"

	"quiclab/internal/statemachine"
	"quiclab/internal/trace"
)

// TestStatePath: the recorded transitions read back as the visited
// states, starting with the first transition's From state.
func TestStatePath(t *testing.T) {
	r := trace.New()
	r.Transition(1, "Init", "SlowStart")
	r.Transition(2, "SlowStart", "CongestionAvoidance")
	r.Transition(3, "CongestionAvoidance", "Recovery")
	got := statemachine.FromRecorder(r, 0).Path()
	want := []string{"Init", "SlowStart", "CongestionAvoidance", "Recovery"}
	if !slices.Equal(got, want) {
		t.Fatalf("path %v, want %v", got, want)
	}
	if path := statemachine.FromRecorder(trace.New(), 0).Path(); path != nil {
		t.Fatalf("a recorder with no transitions has path %v, want nil", path)
	}
}
