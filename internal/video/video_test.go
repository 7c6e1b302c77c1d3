package video

import (
	"testing"
	"time"

	"quiclab/internal/netem"
	"quiclab/internal/quic"
	"quiclab/internal/sim"
	"quiclab/internal/tcp"
	"quiclab/internal/web"
)

func bed(seed int64, link netem.Config) (*sim.Simulator, *netem.Network) {
	s := sim.New(seed)
	nw := netem.NewNetwork(s)
	nw.SetPath(1, 2, netem.NewLink(s, link))
	nw.SetPath(2, 1, netem.NewLink(s, link))
	return s, nw
}

func TestLowQualityPlaysCleanly(t *testing.T) {
	// 100 Mbps for a 150 kbps stream: no rebuffers, fast start.
	s, nw := bed(1, netem.Config{RateBps: 100_000_000, Delay: 18 * time.Millisecond})
	cfg := Config{Quality: Tiny}
	web.StartQUICServer(nw, 2, quic.Config{}, cfg.SegmentBytes())
	var q QoE
	got := false
	StreamQUIC(quic.NewEndpoint(nw, 1, quic.Config{}), 2, cfg, func(r QoE) { q = r; got = true })
	s.RunUntil(90 * time.Second)
	if !got {
		t.Fatal("no QoE reported")
	}
	if q.Rebuffers != 0 {
		t.Fatalf("tiny quality at 100Mbps rebuffered: %+v", q)
	}
	if q.TimeToStart > 2*time.Second {
		t.Fatalf("time to start %v too slow", q.TimeToStart)
	}
	if q.FractionLoaded <= 0 {
		t.Fatal("nothing loaded")
	}
}

func TestHighQualityOnSlowLinkRebuffers(t *testing.T) {
	// 18 Mbps stream on a 5 Mbps link: must stall.
	s, nw := bed(2, netem.Config{RateBps: 5_000_000, Delay: 18 * time.Millisecond})
	cfg := Config{Quality: HD2160}
	web.StartQUICServer(nw, 2, quic.Config{}, cfg.SegmentBytes())
	var q QoE
	got := false
	StreamQUIC(quic.NewEndpoint(nw, 1, quic.Config{}), 2, cfg, func(r QoE) { q = r; got = true })
	s.RunUntil(120 * time.Second)
	if !got {
		t.Fatal("no QoE reported")
	}
	if q.Rebuffers == 0 {
		t.Fatalf("hd2160 at 5Mbps should rebuffer: %+v", q)
	}
	if q.BufferPlayPct <= 0 {
		t.Fatalf("buffer/play ratio should be positive: %+v", q)
	}
}

func TestTCPStreaming(t *testing.T) {
	s, nw := bed(3, netem.Config{RateBps: 20_000_000, Delay: 18 * time.Millisecond})
	cfg := Config{Quality: Medium}
	web.StartTCPServer(nw, 2, tcp.Config{}, cfg.SegmentBytes())
	var q QoE
	got := false
	StreamTCP(tcp.NewEndpoint(nw, 1, tcp.Config{}), 2, cfg, func(r QoE) { q = r; got = true })
	s.RunUntil(120 * time.Second)
	if !got {
		t.Fatal("no QoE reported")
	}
	if q.Rebuffers != 0 || q.FractionLoaded <= 0 {
		t.Fatalf("medium at 20Mbps should play cleanly: %+v", q)
	}
}

func TestQUICLoadsMoreThanTCPUnderLoss(t *testing.T) {
	// The Table 6 hd2160 shape: under 1% loss at high bandwidth, QUIC
	// loads a larger fraction of the video in the window.
	run := func(proto string) QoE {
		link := netem.Config{RateBps: 100_000_000, Delay: 18 * time.Millisecond, LossProb: 0.01}
		s, nw := bed(4, link)
		cfg := Config{Quality: HD2160}
		var q QoE
		switch proto {
		case "quic":
			web.StartQUICServer(nw, 2, quic.Config{}, cfg.SegmentBytes())
			StreamQUIC(quic.NewEndpoint(nw, 1, quic.Config{}), 2, cfg, func(r QoE) { q = r })
		case "tcp":
			web.StartTCPServer(nw, 2, tcp.Config{}, cfg.SegmentBytes())
			StreamTCP(tcp.NewEndpoint(nw, 1, tcp.Config{}), 2, cfg, func(r QoE) { q = r })
		}
		s.RunUntil(120 * time.Second)
		return q
	}
	qq, qt := run("quic"), run("tcp")
	if qq.FractionLoaded <= qt.FractionLoaded {
		t.Fatalf("QUIC should load more under loss: quic=%.2f%% tcp=%.2f%%", qq.FractionLoaded, qt.FractionLoaded)
	}
}

func TestSegmentBytes(t *testing.T) {
	cfg := Config{Quality: HD720, SegmentDuration: 5 * time.Second}
	want := 2_500_000 * 5 / 8
	if got := cfg.SegmentBytes(); got != want {
		t.Fatalf("segment bytes %d, want %d", got, want)
	}
}

func TestQoEString(t *testing.T) {
	q := QoE{TimeToStart: time.Second, FractionLoaded: 10}
	if q.String() == "" {
		t.Fatal("empty")
	}
}
