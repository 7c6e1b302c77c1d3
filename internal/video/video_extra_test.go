package video

import (
	"testing"
	"time"

	"quiclab/internal/netem"
	"quiclab/internal/quic"
	"quiclab/internal/web"
)

func TestPipelineDepthImprovesUtilisation(t *testing.T) {
	// Depth 1 leaves the link idle during request turnarounds; depth 2+
	// keeps it busy, loading more of the video in the window.
	run := func(depth int) QoE {
		s, nw := bed(11, netem.Config{RateBps: 20_000_000, Delay: 30 * time.Millisecond})
		cfg := Config{Quality: HD720, Pipeline: depth}
		web.StartQUICServer(nw, 2, quic.Config{}, cfg.SegmentBytes())
		var q QoE
		StreamQUIC(quic.NewEndpoint(nw, 1, quic.Config{}), 2, cfg, func(r QoE) { q = r })
		s.RunUntil(2 * time.Minute)
		return q
	}
	d1, d3 := run(1), run(3)
	if d3.FractionLoaded <= d1.FractionLoaded {
		t.Fatalf("deeper pipeline should load more: d1=%.2f%% d3=%.2f%%", d1.FractionLoaded, d3.FractionLoaded)
	}
}

func TestTimeToStartScalesWithSegmentSize(t *testing.T) {
	run := func(q Quality) QoE {
		s, nw := bed(12, netem.Config{RateBps: 10_000_000, Delay: 18 * time.Millisecond})
		cfg := Config{Quality: q}
		web.StartQUICServer(nw, 2, quic.Config{}, cfg.SegmentBytes())
		var out QoE
		StreamQUIC(quic.NewEndpoint(nw, 1, quic.Config{}), 2, cfg, func(r QoE) { out = r })
		s.RunUntil(2 * time.Minute)
		return out
	}
	tiny, hd := run(Tiny), run(HD720)
	if hd.TimeToStart <= tiny.TimeToStart {
		t.Fatalf("bigger first segment must start later: tiny=%v hd=%v", tiny.TimeToStart, hd.TimeToStart)
	}
}

func TestNeverStartedReportsWindowAsStart(t *testing.T) {
	// A stream that can't deliver even one segment in the window reports
	// TimeToStart == window and zero loaded fraction beyond arrivals.
	s, nw := bed(13, netem.Config{RateBps: 1_000_000, Delay: 18 * time.Millisecond})
	cfg := Config{Quality: HD2160, Window: 10 * time.Second} // 11MB segment at 1Mbps
	web.StartQUICServer(nw, 2, quic.Config{}, cfg.SegmentBytes())
	var q QoE
	got := false
	StreamQUIC(quic.NewEndpoint(nw, 1, quic.Config{}), 2, cfg, func(r QoE) { q = r; got = true })
	s.RunUntil(time.Minute)
	if !got {
		t.Fatal("no QoE reported")
	}
	if q.TimeToStart != 10*time.Second || q.Rebuffers != 0 {
		t.Fatalf("never-started session misreported: %+v", q)
	}
}

func TestBufferPlayAccountingConsistent(t *testing.T) {
	// Play time + stall time can't exceed the window after start.
	s, nw := bed(14, netem.Config{RateBps: 5_000_000, Delay: 18 * time.Millisecond, LossProb: 0.01})
	cfg := Config{Quality: HD720}
	web.StartQUICServer(nw, 2, quic.Config{}, cfg.SegmentBytes())
	var q QoE
	StreamQUIC(quic.NewEndpoint(nw, 1, quic.Config{}), 2, cfg, func(r QoE) { q = r })
	s.RunUntil(2 * time.Minute)
	if q.BufferPlayPct < 0 {
		t.Fatalf("negative buffer/play: %+v", q)
	}
	if q.FractionLoaded < 0 || q.FractionLoaded > 100 {
		t.Fatalf("fraction out of range: %+v", q)
	}
	if q.Rebuffers > 0 && q.BufferPlayPct == 0 {
		t.Fatalf("rebuffers without stall time: %+v", q)
	}
}

func TestQualitiesOrdered(t *testing.T) {
	qs := Qualities()
	for i := 1; i < len(qs); i++ {
		if qs[i].BitrateBps <= qs[i-1].BitrateBps {
			t.Fatal("qualities must be in ascending bitrate order")
		}
	}
	if (Config{}).withDefaults().VideoDuration != time.Hour {
		t.Fatal("default video length should be the paper's one-hour video")
	}
}
