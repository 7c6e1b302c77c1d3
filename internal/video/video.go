// Package video models the paper's YouTube QoE experiments (§5.3,
// Table 6): a segment-based player streams a one-hour video at a chosen
// quality level over QUIC or TCP for a 60-second observation window and
// reports time-to-start, fraction of video loaded, rebuffer counts, and
// the buffering/playing time ratio.
package video

import (
	"fmt"
	"time"

	"quiclab/internal/netem"
	"quiclab/internal/quic"
	"quiclab/internal/sim"
	"quiclab/internal/tcp"
	"quiclab/internal/web"
)

// Quality is a video quality level with its encoding bitrate.
type Quality struct {
	Name       string
	BitrateBps int
}

// The paper's four tested quality levels (Table 2/6) with era-plausible
// bitrates.
var (
	Tiny   = Quality{Name: "tiny", BitrateBps: 150_000}
	Medium = Quality{Name: "medium", BitrateBps: 750_000}
	HD720  = Quality{Name: "hd720", BitrateBps: 2_500_000}
	HD2160 = Quality{Name: "hd2160", BitrateBps: 18_000_000}
)

// Qualities lists the tested levels in ascending bitrate.
func Qualities() []Quality { return []Quality{Tiny, Medium, HD720, HD2160} }

// Config parameterises one streaming session.
type Config struct {
	Quality Quality
	// SegmentDuration is the media length per segment (default 5s).
	SegmentDuration time.Duration
	// VideoDuration is the full video length (default 1 hour, like the
	// paper's test video).
	VideoDuration time.Duration
	// Window is the observation window (default 60s, per the paper).
	Window time.Duration
	// Pipeline is how many segment requests are kept in flight
	// (default 2).
	Pipeline int
}

func (c Config) withDefaults() Config {
	if c.SegmentDuration == 0 {
		c.SegmentDuration = 5 * time.Second
	}
	if c.VideoDuration == 0 {
		c.VideoDuration = time.Hour
	}
	if c.Window == 0 {
		c.Window = 60 * time.Second
	}
	if c.Pipeline == 0 {
		c.Pipeline = 2
	}
	return c
}

// SegmentBytes returns the size of one segment at this config's quality
// (defaults applied, so it is safe to call on a sparse Config).
func (c Config) SegmentBytes() int {
	c = c.withDefaults()
	return int(float64(c.Quality.BitrateBps) * c.SegmentDuration.Seconds() / 8)
}

// QoE is the measured quality of experience (Table 6 columns).
type QoE struct {
	TimeToStart     time.Duration
	FractionLoaded  float64 // of the whole video, in the window (%)
	BufferPlayPct   float64 // buffering time / playing time (%)
	Rebuffers       int
	RebuffersPerSec float64 // rebuffers per playing second
}

func (q QoE) String() string {
	return fmt.Sprintf("start=%v loaded=%.1f%% buffer/play=%.1f%% rebuffers=%d (%.3f/s)",
		q.TimeToStart.Round(10*time.Millisecond), q.FractionLoaded, q.BufferPlayPct, q.Rebuffers, q.RebuffersPerSec)
}

// player is the transport-agnostic playback model.
type player struct {
	sim    *sim.Simulator
	cfg    Config
	start  time.Duration
	onDone func(QoE)

	segsArrived int
	totalSegs   int

	started     bool
	timeToStart time.Duration
	playing     bool
	buffered    time.Duration // media seconds ready ahead of playhead
	playTime    time.Duration
	stallTime   time.Duration
	stallBegan  time.Duration
	lastAdvance time.Duration
	rebuffers   int
	emptyTimer  sim.Timer
	finished    bool

	requestNext func()
	inFlight    int
}

func newPlayer(s *sim.Simulator, cfg Config, onDone func(QoE)) *player {
	cfg = cfg.withDefaults()
	return &player{
		sim:       s,
		cfg:       cfg,
		start:     s.Now(),
		onDone:    onDone,
		totalSegs: int(cfg.VideoDuration / cfg.SegmentDuration),
	}
}

func (p *player) begin() {
	p.lastAdvance = p.sim.Now()
	for i := 0; i < p.cfg.Pipeline && i < p.totalSegs; i++ {
		p.inFlight++
		p.requestNext()
	}
	p.sim.ScheduleAt(p.start+p.cfg.Window, p.finish)
}

// advance accrues play/stall time up to now.
func (p *player) advance() {
	now := p.sim.Now()
	elapsed := now - p.lastAdvance
	p.lastAdvance = now
	if !p.started {
		return
	}
	if p.playing {
		if elapsed > p.buffered {
			elapsed = p.buffered // emptyTimer fires exactly at exhaustion
		}
		p.buffered -= elapsed
		p.playTime += elapsed
	} else {
		p.stallTime += elapsed
	}
}

func (p *player) onSegment() {
	if p.finished {
		return
	}
	p.advance()
	p.segsArrived++
	p.inFlight--
	p.buffered += p.cfg.SegmentDuration
	now := p.sim.Now()
	if !p.started {
		p.started = true
		p.timeToStart = now - p.start
		p.playing = true
	} else if !p.playing {
		// Rebuffer resolved; the event itself was counted at stall onset.
		p.playing = true
	}
	p.armEmptyTimer()
	// Keep the pipeline full.
	for p.inFlight < p.cfg.Pipeline && p.segsArrived+p.inFlight < p.totalSegs {
		p.inFlight++
		p.requestNext()
	}
}

func (p *player) armEmptyTimer() {
	p.emptyTimer.Stop()
	if !p.playing {
		return
	}
	p.emptyTimer = p.sim.Schedule(p.buffered, func() {
		p.advance()
		if p.buffered <= 0 && p.playing {
			// Stall begins: this is the rebuffering event.
			p.playing = false
			p.rebuffers++
		}
	})
}

func (p *player) finish() {
	if p.finished {
		return
	}
	p.finished = true
	p.advance()
	p.emptyTimer.Stop()
	q := QoE{
		TimeToStart: p.timeToStart,
		Rebuffers:   p.rebuffers,
	}
	if !p.started {
		q.TimeToStart = p.cfg.Window
	}
	q.FractionLoaded = 100 * float64(p.segsArrived) / float64(p.totalSegs)
	if p.playTime > 0 {
		q.BufferPlayPct = 100 * float64(p.stallTime) / float64(p.playTime)
		q.RebuffersPerSec = float64(p.rebuffers) / p.playTime.Seconds()
	}
	p.onDone(q)
}

// StreamQUIC plays the configured video on client endpoint ep from a
// web.QUICServer (whose ObjectSize must equal cfg.SegmentBytes()) and
// reports QoE via onDone.
func StreamQUIC(ep *quic.Endpoint, server netem.Addr, cfg Config, onDone func(QoE)) {
	p := newPlayer(ep.Sim(), cfg, onDone)
	conn := ep.Dial(server)
	p.requestNext = func() {
		conn.OnConnected(func() {
			st, err := conn.OpenStream()
			if err != nil {
				return
			}
			st.OnData = func(_ int, done bool) {
				if done {
					p.onSegment()
				}
			}
			st.Write(web.RequestSize, true)
		})
	}
	p.begin()
}

// StreamTCP plays the configured video on client endpoint ep from a
// web.TCPServer over one persistent TCP connection with pipelined
// segment requests.
func StreamTCP(ep *tcp.Endpoint, server netem.Addr, cfg Config, onDone func(QoE)) {
	p := newPlayer(ep.Sim(), cfg, onDone)
	conn := ep.Dial(server)
	segBytes := web.TLSBytes(web.ResponseHeaderSize + cfg.withDefaults().SegmentBytes())
	got := 0
	conn.OnData = func(delta int) {
		got += delta
		for got >= segBytes {
			got -= segBytes
			p.onSegment()
		}
	}
	p.requestNext = func() {
		conn.OnConnected(func() {
			conn.Write(web.TLSBytes(web.RequestSize))
		})
	}
	p.begin()
}
