package core

import (
	"strings"
	"testing"
	"time"

	"quiclab/internal/cellular"
	"quiclab/internal/device"
	"quiclab/internal/web"
)

func TestRunThroughputDeterministic(t *testing.T) {
	sc := Scenario{
		Seed: 21, RateMbps: 50, LossPct: 0.5,
		Page:   web.Page{NumObjects: 1, ObjectSize: 5 << 20},
		Device: device.Desktop,
	}
	a := sc.RunThroughput(QUIC, 21)
	b := sc.RunThroughput(QUIC, 21)
	if a.Done != b.Done || a.AvgMbps != b.AvgMbps {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.Done, a.AvgMbps, b.Done, b.AvgMbps)
	}
	if a.Done == 0 {
		t.Fatal("did not complete")
	}
	if len(a.Cwnd) == 0 {
		t.Fatal("no cwnd samples recorded")
	}
}

func TestRunThroughputSeriesConsistent(t *testing.T) {
	sc := Scenario{
		Seed: 22, RateMbps: 20,
		Page:   web.Page{NumObjects: 1, ObjectSize: 10 << 20},
		Device: device.Desktop,
	}
	tr := sc.RunThroughput(TCP, 22)
	if tr.Done == 0 {
		t.Fatal("did not complete")
	}
	var total float64
	for _, v := range tr.Series {
		if v < 0 || v > 25 {
			t.Fatalf("series value %v out of range for a 20Mbps link", v)
		}
		total += v
	}
	// The series must account for roughly the object size.
	gotMB := total / 8
	if gotMB < 9 || gotMB > 12 {
		t.Fatalf("series sums to %.1f MB, want ~10", gotMB)
	}
}

func TestFairnessSeriesSumBounded(t *testing.T) {
	res := table4Path.RunFairness(ProtoArms(QUIC, TCP), 15*time.Second, 23)
	for i := range res[0].Series {
		sum := 0.0
		for _, f := range res {
			if i < len(f.Series) {
				sum += f.Series[i]
			}
		}
		if sum > 5.6 { // rate + small measurement slack
			t.Fatalf("second %d: combined %v Mbps exceeds the 5Mbps link", i, sum)
		}
	}
}

func TestCellularScenarioRuns(t *testing.T) {
	p := cellular.VerizonLTE
	sc := Scenario{
		Seed: 24, Cell: &p,
		Page:   web.Page{NumObjects: 1, ObjectSize: 100 << 10},
		Device: device.Desktop,
	}
	q := sc.RunPLT(QUIC, 24)
	tc := sc.RunPLT(TCP, 24)
	if !q.Completed || !tc.Completed {
		t.Fatal("cellular loads incomplete")
	}
	// 100KB at 4Mbps is ~0.2s + handshakes.
	if q.PLT > 5*time.Second || tc.PLT > 5*time.Second {
		t.Fatalf("implausible cellular PLTs: %v / %v", q.PLT, tc.PLT)
	}
	if q.PLT >= tc.PLT {
		t.Fatalf("QUIC (%v) should beat TCP (%v) on LTE for 100KB", q.PLT, tc.PLT)
	}
}

func TestVarBWStopsCleanly(t *testing.T) {
	sc := Scenario{
		Seed:       25,
		VarBW:      &VarBW{MinMbps: 20, MaxMbps: 40, Interval: 500 * time.Millisecond},
		QueueBytes: 64 << 10,
		Page:       web.Page{NumObjects: 1, ObjectSize: 2 << 20},
		Device:     device.Desktop,
	}
	done := make(chan struct{})
	go func() {
		sc.RunPLT(QUIC, 25) // must return despite the endless varier
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("variable-bandwidth run did not terminate")
	}
}

func TestTimeLossDetectionScenario(t *testing.T) {
	base := Scenario{
		Seed: 26, RateMbps: 20,
		RTT: 112 * time.Millisecond, Jitter: 10 * time.Millisecond,
		Page:   web.Page{NumObjects: 1, ObjectSize: 5 << 20},
		Device: device.Desktop,
	}
	fixed := base.RunPLT(QUIC, 26)
	timed := base
	timed.TimeLossDetection = true
	tb := timed.RunPLT(QUIC, 26)
	if tb.PLT >= fixed.PLT {
		t.Fatalf("time-based detection (%v) should beat NACK=3 (%v) under reordering", tb.PLT, fixed.PLT)
	}
	adaptive := base
	adaptive.AdaptiveNACK = true
	ad := adaptive.RunPLT(QUIC, 26)
	if ad.PLT >= fixed.PLT {
		t.Fatalf("adaptive NACK (%v) should beat fixed (%v) under reordering", ad.PLT, fixed.PLT)
	}
}

func TestFig2ServiceWaitScenario(t *testing.T) {
	sc := Scenario{
		Seed: 27, RateMbps: 100,
		Page:        web.Page{NumObjects: 1, ObjectSize: 1 << 20},
		Device:      device.Desktop,
		ServiceWait: func() time.Duration { return 150 * time.Millisecond },
	}
	withWait := sc.RunPLT(QUIC, 27)
	sc.ServiceWait = nil
	without := sc.RunPLT(QUIC, 27)
	delta := withWait.PLT - without.PLT
	if delta < 120*time.Millisecond {
		t.Fatalf("service wait not reflected in PLT: delta %v", delta)
	}
}

func TestProtoAndProxyStrings(t *testing.T) {
	if QUIC.String() != "QUIC" || TCP.String() != "TCP" {
		t.Fatal("proto strings")
	}
}

func TestExperimentTitlesMentionPaperArtifacts(t *testing.T) {
	for _, e := range Experiments() {
		// Extensions (no paper counterpart) declare themselves in Paper.
		if e.ID == "ablations" || strings.HasPrefix(e.Paper, "extension") {
			continue
		}
		lower := strings.ToLower(e.Title)
		if !strings.Contains(lower, "fig") && !strings.Contains(lower, "table") {
			t.Errorf("%s: title should reference its paper artifact: %q", e.ID, e.Title)
		}
	}
}
