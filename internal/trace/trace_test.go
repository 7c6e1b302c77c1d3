package trace

import (
	"testing"
	"time"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Transition(0, "a", "b")
	r.SampleCwnd(0, 1)
	r.Count("x")
	if r.Counter("x") != 0 {
		t.Fatal("nil counter should be 0")
	}
	if len(r.TimeInState(time.Second)) != 0 {
		t.Fatal("nil time-in-state should be empty")
	}
}

func TestTimeInState(t *testing.T) {
	r := New()
	r.Transition(10*time.Millisecond, "Init", "SlowStart")
	r.Transition(30*time.Millisecond, "SlowStart", "CA")
	m := r.TimeInState(100 * time.Millisecond)
	if m["Init"] != 10*time.Millisecond {
		t.Errorf("Init = %v", m["Init"])
	}
	if m["SlowStart"] != 20*time.Millisecond {
		t.Errorf("SlowStart = %v", m["SlowStart"])
	}
	if m["CA"] != 70*time.Millisecond {
		t.Errorf("CA = %v", m["CA"])
	}
}

func TestCounters(t *testing.T) {
	r := New()
	r.Count("loss")
	r.Count("loss")
	if r.Counter("loss") != 2 {
		t.Fatalf("loss = %d", r.Counter("loss"))
	}
	if r.Counter("nothing") != 0 {
		t.Fatal("unset counter should be 0")
	}
	// Zero-value Recorder must also work.
	var z Recorder
	z.Count("a")
	if z.Counter("a") != 1 {
		t.Fatal("zero-value recorder Count failed")
	}
}

func TestSampleCwnd(t *testing.T) {
	r := New()
	r.SampleCwnd(time.Second, 14480)
	if len(r.Cwnd) != 1 || r.Cwnd[0].V != 14480 || r.Cwnd[0].T != time.Second {
		t.Fatalf("cwnd samples %v", r.Cwnd)
	}
}
