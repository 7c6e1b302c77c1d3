package trace

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Transition(0, "a", "b")
	r.SampleCwnd(0, 1)
	if counters(r) != [len(counterNames)]int{} {
		t.Fatal("nil counters should be 0")
	}
	if len(r.Summary(time.Second).TimeInState) != 0 {
		t.Fatal("nil time-in-state should be empty")
	}
}

func TestTimeInState(t *testing.T) {
	r := New()
	r.Transition(10*time.Millisecond, "Init", "SlowStart")
	r.Transition(30*time.Millisecond, "SlowStart", "CA")
	m := r.Summary(100 * time.Millisecond).TimeInState
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

// TestCounters: each name reads its own fold — a zero-value Recorder
// folds too — and any other name panics.
func TestCounters(t *testing.T) {
	var r Recorder
	r.PacketLost(0, 1, 100)
	r.FalseLoss(0, 1)
	r.FalseLoss(0, 2)
	for range 3 {
		r.SpuriousRexmit(0, 3)
	}
	for range 4 {
		r.RTOFired(0)
	}
	for range 5 {
		r.TLPFired(0)
	}
	for range 6 {
		r.FaultInjected(0, "loss=1%")
	}
	if got := counters(&r); got != [...]int{1, 2, 3, 4, 5, 6} {
		t.Fatalf("counters %v of %v, want 1..6", got, counterNames)
	}
	defer func() {
		if recover() == nil {
			t.Error("an unknown counter name did not panic")
		}
	}()
	r.Counter("loss")
}

func TestSampleCwnd(t *testing.T) {
	r := New()
	r.SampleCwnd(time.Second, 14480)
	if len(r.Cwnd) != 1 || r.Cwnd[0].V != 14480 || r.Cwnd[0].T != time.Second {
		t.Fatalf("cwnd samples %v", r.Cwnd)
	}
}

// thinCwnd is the thinning fig5's and fig9's printers apply to a cwnd
// series: the first sample, then each one at least a second after the
// last kept.
func thinCwnd(samples []Sample) []Sample {
	var out []Sample
	lastT := -time.Second
	for _, s := range samples {
		if s.T-lastT >= time.Second {
			out = append(out, s)
			lastT = s.T
		}
	}
	return out
}

// TestCwndFoldEqualsThinning: for seeded sample streams — bursts inside a
// second, gaps of a second and more, exactly a second, equal timestamps —
// the Cwnd a recorder keeps is the printers' thinning of the whole stream,
// thinning it again changes nothing (so a series from before the fold
// prints the same), a detailed recorder's events still carry every sample,
// and a Reset recorder starts the fold afresh.
func TestCwndFoldEqualsThinning(t *testing.T) {
	steps := []time.Duration{0, time.Millisecond, 300 * time.Millisecond,
		time.Second - 1, time.Second, time.Second + 1, 2500 * time.Millisecond}
	plain, detailed := New(), NewDetailed()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var full []Sample
		now := time.Duration(rng.Intn(2)) * time.Duration(rng.Int63n(int64(3*time.Second)))
		for i := rng.Intn(500); i > 0; i-- {
			if rng.Intn(4) == 0 {
				now += time.Duration(rng.Int63n(int64(1500 * time.Millisecond)))
			} else {
				now += steps[rng.Intn(len(steps))]
			}
			full = append(full, Sample{T: now, V: float64(rng.Intn(1 << 20))})
		}
		plain.Reset()
		detailed.Reset()
		for _, s := range full {
			plain.SampleCwnd(s.T, s.V)
			detailed.SampleCwnd(s.T, s.V)
		}
		want := thinCwnd(full)
		if !slices.Equal(plain.Cwnd, want) || !slices.Equal(detailed.Cwnd, want) {
			t.Fatalf("seed %d: kept %d and %d samples of %d, thinning keeps %d",
				seed, len(plain.Cwnd), len(detailed.Cwnd), len(full), len(want))
		}
		if !slices.Equal(thinCwnd(plain.Cwnd), plain.Cwnd) {
			t.Fatalf("seed %d: thinning the kept series drops samples", seed)
		}
		var logged []Sample
		for _, e := range detailed.Events {
			logged = append(logged, Sample{T: e.T, V: e.Cwnd})
		}
		if !slices.Equal(logged, full) {
			t.Fatalf("seed %d: the event log holds %d of %d samples", seed, len(logged), len(full))
		}
	}
}
