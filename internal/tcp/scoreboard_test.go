package tcp

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/netem"
	"quiclab/internal/ranges"
	"quiclab/internal/sim"
	"quiclab/internal/transport"
	"quiclab/internal/wire"
)

const mss = wire.TCPMSS

// ccCall is one congestion-controller callback as the transport made it.
type ccCall struct {
	kind  string // sent, ack, loss, rto, tlp
	idx   uint64
	bytes int
	rtt   time.Duration
	out   int // inFlight argument
}

// recCC is a cc.Controller whose window is whatever the test sets and
// which records every callback in order (unless quiet).
type recCC struct {
	wnd   int
	quiet bool
	calls []ccCall
}

func (r *recCC) log(c ccCall) {
	if !r.quiet {
		r.calls = append(r.calls, c)
	}
}

func (r *recCC) OnPacketSent(_ time.Duration, idx uint64, bytes int) {
	r.log(ccCall{kind: "sent", idx: idx, bytes: bytes})
}
func (r *recCC) OnAck(_ time.Duration, idx uint64, bytes int, rtt time.Duration, inFlight int) {
	r.log(ccCall{"ack", idx, bytes, rtt, inFlight})
}
func (r *recCC) OnLoss(_ time.Duration, idx uint64, bytes int, inFlight int) {
	r.log(ccCall{"loss", idx, bytes, 0, inFlight})
}
func (r *recCC) OnRTO(time.Duration)                   { r.log(ccCall{kind: "rto"}) }
func (r *recCC) OnTLP(time.Duration)                   { r.log(ccCall{kind: "tlp"}) }
func (r *recCC) SetAppLimited(time.Duration, cc.Limit) {}
func (r *recCC) CanSend(inFlight int) bool             { return inFlight < r.wnd }
func (r *recCC) Window() int                           { return r.wnd }
func (r *recCC) PacingRate() float64                   { return 0 }
func (r *recCC) State() cc.State                       { return cc.StateSlowStart }

// isolatedSender returns an established connection driven by ctrl whose
// segments go nowhere (no route) and whose timers never run: the test is
// the peer, feeding acks through process(). The clock stands at 1 s so
// timestamp echoes yield positive RTT samples.
func isolatedSender(ctrl cc.Controller) *Conn {
	s := sim.New(1)
	s.Schedule(time.Second, func() {})
	s.Run()
	e := NewEndpoint(netem.NewNetwork(s), 2, Config{IdleTimeout: -1})
	c := newConn(e, 1, 7, false)
	c.tcpEstablished, c.connected = true, true
	c.peerWnd = 1 << 40
	c.cc = ctrl
	return c
}

// echo40 is a timestamp echo 40 ms before the isolated sender's clock.
const echo40 = 960

// feedAck has c process a pure ack, as Endpoint.HandlePacket would.
func feedAck(c *Conn, ackNum uint64, tsecr uint32, dsack *wire.SACKBlock, sack ...wire.SACKBlock) {
	seg := getSegment()
	seg.ACK = true
	seg.AckNum, seg.TSEcr, seg.Window = ackNum, tsecr, 1<<40
	seg.SACK = append(seg.SACK, sack...)
	seg.DSACK = dsack
	c.process(seg)
}

// rexmitBehindOriginals leaves originals 5..9 outstanding and a
// retransmission of segment 0 transmitted after them: segment 0 is
// declared lost while the window is shut, a further ack arrives, and
// only then does the window let the retransmission out. (Under the old
// transmit-ordered bookkeeping that further ack trimmed segment 0's dead
// slot, so the retransmission was filed behind the originals.)
func rexmitBehindOriginals(t *testing.T) (*Conn, *recCC) {
	t.Helper()
	ctrl := &recCC{wnd: 100 * mss}
	c := isolatedSender(ctrl)
	c.Write(10 * mss)
	ctrl.wnd = 0
	sack := wire.SACKBlock{Start: mss, End: 5 * mss}
	feedAck(c, 0, 0, nil, sack) // 1..4 SACKed, 0 lost by the SACK rule
	feedAck(c, 0, 0, nil, sack)
	if len(c.retransQ) != 1 || c.retransQ[0] != (ranges.Range{Start: 0, End: mss}) {
		t.Fatalf("retransQ = %v, want segment 0 held back by the shut window", c.retransQ)
	}
	ctrl.wnd = 100 * mss
	c.maybeSend()
	live := c.sb.live()
	if len(live) != 6 || !live[0].rexmit || live[0].sendIdx < live[5].sendIdx {
		t.Fatalf("want a retransmission of 0 sent after originals 5..9, scoreboard has %d entries", len(live))
	}
	ctrl.calls = nil
	return c, ctrl
}

// TestRTORequeuesInSequenceOrder (regression): an RTO with a
// retransmission outstanding requeues in sequence order, as onRTO's
// comment always said; it used to requeue in transmit-slot order.
func TestRTORequeuesInSequenceOrder(t *testing.T) {
	c, ctrl := rexmitBehindOriginals(t)
	ctrl.wnd = 0 // keep the requeued ranges in retransQ
	c.onRTO()
	if len(c.retransQ) != 6 {
		t.Fatalf("retransQ has %d ranges, want 6: %v", len(c.retransQ), c.retransQ)
	}
	for i := 1; i < len(c.retransQ); i++ {
		if c.retransQ[i-1].Start >= c.retransQ[i].Start {
			t.Fatalf("retransQ not ascending in Start: %v", c.retransQ)
		}
	}
	if err := c.CheckScoreboard(); err != nil || c.sb.len() != 0 {
		t.Fatalf("scoreboard after RTO: %d entries, %v", c.sb.len(), err)
	}
}

// TestCumulativeAckOnAckInSequenceOrder: one cumulative ack covering a
// retransmission and later-sequenced (earlier-sent) originals reaches
// cc.OnAck in ascending seq, and the RTT sample goes to the first
// original (Karn excludes the retransmission).
func TestCumulativeAckOnAckInSequenceOrder(t *testing.T) {
	c, ctrl := rexmitBehindOriginals(t)
	seqOf := map[uint64]uint64{}
	for _, ss := range c.sb.live() {
		seqOf[ss.sendIdx] = ss.seq
	}
	ctrl.wnd = 0
	feedAck(c, 10*mss, echo40, nil)
	var seqs []uint64
	for _, call := range ctrl.calls {
		if call.kind != "ack" {
			t.Fatalf("unexpected cc call %+v", call)
		}
		seqs = append(seqs, seqOf[call.idx])
		if sampled := call.rtt > 0; sampled != (seqOf[call.idx] == 5*mss) {
			t.Fatalf("RTT sample on seq %d: %v", seqOf[call.idx], call.rtt)
		}
	}
	want := []uint64{0, 5 * mss, 6 * mss, 7 * mss, 8 * mss, 9 * mss}
	if !slices.Equal(seqs, want) {
		t.Fatalf("OnAck order by seq = %v, want %v", seqs, want)
	}
	if c.sb.len() != 0 || c.outBytes != 0 {
		t.Fatalf("after full ack: %d tracked, outBytes %d", c.sb.len(), c.outBytes)
	}
}

// --- Model test: the scoreboard against a naive reference ------------------

type refSeg struct {
	seq, end, idx, fack uint64
	rexmit              bool
}

// refSender is the sender bookkeeping written the obvious way: tracked
// segments in a plain slice in transmit order, every lookup a linear
// scan, every batch collected and then sorted by seq. It defines the
// behaviour the scoreboard must reproduce.
type refSender struct {
	ctrl               *recCC // shared for the window only
	segs               []refSeg
	sacked             ranges.Set
	una, nxt, writeLen uint64
	nextIdx            uint64
	out                int
	retransQ           []ranges.Range
	dupAcks, dupThresh int
	tlpProbeSeq        uint64
	tlpProbeSet        bool
	rtoSeen            bool
	calls              []ccCall
}

func (m *refSender) highestSacked() uint64 {
	r, _ := m.sacked.Last()
	return r.End
}

// take removes and returns the tracked segments matching pred, by seq.
func (m *refSender) take(pred func(refSeg) bool) []refSeg {
	var hit, rest []refSeg
	for _, s := range m.segs {
		if pred(s) {
			hit = append(hit, s)
		} else {
			rest = append(rest, s)
		}
	}
	m.segs = rest
	sort.Slice(hit, func(i, j int) bool { return hit[i].seq < hit[j].seq })
	return hit
}

func (m *refSender) untrack(s refSeg) {
	if m.out -= int(s.end - s.seq); m.out < 0 {
		m.out = 0
	}
}

func (m *refSender) transmit(seq, end uint64, rexmit bool) {
	s := refSeg{seq: seq, end: end, idx: m.nextIdx, fack: m.highestSacked(), rexmit: rexmit}
	m.nextIdx++
	for _, old := range m.take(func(o refSeg) bool { return o.seq == seq }) {
		if old.end == end {
			s.rexmit = true
		}
		m.out -= int(old.end - old.seq)
	}
	m.segs = append(m.segs, s)
	m.out += int(end - seq)
	m.calls = append(m.calls, ccCall{kind: "sent", idx: s.idx, bytes: int(end - seq)})
}

func (m *refSender) maybeSend() {
	for {
		if len(m.retransQ) > 0 {
			r := m.retransQ[0]
			if r.End <= m.una {
				m.retransQ = m.retransQ[1:]
				continue
			}
			if r.Start < m.una {
				r.Start = m.una
			}
			if !m.ctrl.CanSend(m.out) {
				return
			}
			m.retransQ = m.retransQ[1:]
			for seq := r.Start; seq < r.End; seq += mss {
				m.transmit(seq, min(seq+mss, r.End), true)
			}
			continue
		}
		if m.nxt >= m.writeLen || !m.ctrl.CanSend(m.out) {
			return
		}
		end := min(m.nxt+mss, m.writeLen)
		m.transmit(m.nxt, end, false)
		m.nxt = end
	}
}

func (m *refSender) process(ackNum uint64, tsecr uint32, dsack *wire.SACKBlock, sack []wire.SACKBlock) {
	if dsack != nil {
		if m.tlpProbeSet && dsack.Start <= m.tlpProbeSeq && m.tlpProbeSeq < dsack.End {
			m.tlpProbeSet = false
		} else if !m.rtoSeen { // the clock never moves past a timeout: Eifel window
			m.dupThresh = min(m.dupThresh+m.dupThresh/2+1, maxDupThresh)
		}
	}
	for _, b := range sack {
		if b.End > m.una {
			m.sacked.Add(max(b.Start, m.una), b.End)
		}
	}
	if ackNum > m.una {
		sampled := false
		for _, s := range m.take(func(s refSeg) bool { return s.end <= ackNum }) {
			rtt := time.Duration(0)
			if !s.rexmit && !sampled && tsecr > 0 {
				rtt, sampled = time.Second-time.Duration(tsecr)*time.Millisecond, true
			}
			m.untrack(s)
			m.calls = append(m.calls, ccCall{"ack", s.idx, int(s.end - s.seq), rtt, m.out})
		}
		m.una = ackNum
		m.sacked.RemoveBelow(m.una)
		m.dupAcks = 0
	} else if ackNum == m.una && m.nxt > m.una {
		m.dupAcks++
	}
	for _, s := range m.take(func(s refSeg) bool { return m.sacked.ContainsRange(s.seq, s.end) }) {
		m.untrack(s)
		m.calls = append(m.calls, ccCall{"ack", s.idx, int(s.end - s.seq), 0, m.out})
	}
	m.detectLosses()
	m.maybeSend()
}

func (m *refSender) detectLosses() {
	high := m.highestSacked()
	lost := func(s refSeg) bool {
		return !s.rexmit && s.seq < high && high >= max(s.end, s.fack)+uint64(m.dupThresh)*mss
	}
	thresh := m.dupThresh
	if out := len(m.segs); out >= 2 && out < 4 && thresh > out-1 {
		thresh = out - 1
	}
	headToo := m.dupAcks >= thresh
	if headToo {
		m.dupAcks = 0
	}
	batch := m.take(lost)
	if headToo { // the head-of-line segment goes last
		batch = append(batch, m.take(func(s refSeg) bool { return s.seq == m.una && !s.rexmit })...)
	}
	for _, s := range batch {
		m.untrack(s)
		m.calls = append(m.calls, ccCall{"loss", s.idx, int(s.end - s.seq), 0, m.out})
		m.retransQ = append(m.retransQ, ranges.Range{Start: s.seq, End: s.end})
	}
}

func (m *refSender) onTLP() {
	if len(m.segs) == 0 {
		m.maybeSend()
		return
	}
	m.calls = append(m.calls, ccCall{kind: "tlp"})
	tail := m.segs[0]
	for _, s := range m.segs {
		if s.seq > tail.seq {
			tail = s
		}
	}
	m.tlpProbeSeq, m.tlpProbeSet = tail.seq, true
	m.transmit(tail.seq, tail.end, true)
}

func (m *refSender) onRTO() {
	if len(m.segs) == 0 && len(m.retransQ) == 0 {
		return
	}
	m.rtoSeen = true
	m.calls = append(m.calls, ccCall{kind: "rto"})
	var resend []ranges.Range
	for _, s := range m.take(func(s refSeg) bool { return !m.sacked.ContainsRange(s.seq, s.end) }) {
		m.untrack(s)
		resend = append(resend, ranges.Range{Start: s.seq, End: s.end})
	}
	m.retransQ = append(resend, m.retransQ...)
	m.maybeSend()
}

// agree compares every piece of sender state the two keep.
func (m *refSender) agree(c *Conn) error {
	if err := c.CheckScoreboard(); err != nil {
		return err
	}
	if c.outBytes != m.out || c.sndUna != m.una || c.sndNxt != m.nxt ||
		c.dupAcks != m.dupAcks || c.dupThresh != m.dupThresh {
		return fmt.Errorf("state: conn out=%d una=%d nxt=%d dupAcks=%d dupThresh=%d, reference out=%d una=%d nxt=%d dupAcks=%d dupThresh=%d",
			c.outBytes, c.sndUna, c.sndNxt, c.dupAcks, c.dupThresh, m.out, m.una, m.nxt, m.dupAcks, m.dupThresh)
	}
	if !slices.Equal(c.retransQ, m.retransQ) {
		return fmt.Errorf("retransQ: conn %v, reference %v", c.retransQ, m.retransQ)
	}
	var tracked []refSeg
	for _, ss := range c.sb.live() {
		tracked = append(tracked, refSeg{ss.seq, ss.end, ss.sendIdx, ss.fackBase, ss.rexmit})
	}
	want := slices.Clone(m.segs)
	sort.Slice(want, func(i, j int) bool { return want[i].seq < want[j].seq })
	if !slices.Equal(tracked, want) {
		return fmt.Errorf("tracked segments: conn %v, reference %v", tracked, want)
	}
	if !slices.Equal(m.ctrl.calls, m.calls) {
		return fmt.Errorf("cc calls: conn %v, reference %v", m.ctrl.calls, m.calls)
	}
	m.ctrl.calls, m.calls = m.ctrl.calls[:0], m.calls[:0]
	return nil
}

// TestScoreboardMatchesReference drives the connection and the naive
// reference through the same seeded random sequences of writes, window
// changes, cumulative acks (segment-aligned and mid-segment), SACKs,
// DSACKs, tail-loss probes and RTOs. After every step the scoreboard is
// strictly ascending in seq, outBytes == Σ(end-seq) over it, and the two
// agree on the tracked segments, retransQ and the exact cc call sequence.
func TestScoreboardMatchesReference(t *testing.T) {
	steps := 600
	if testing.Short() {
		steps = 150
	}
	var seen [7]int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ctrl := &recCC{wnd: 10 * mss}
		c := isolatedSender(ctrl)
		m := &refSender{ctrl: ctrl, nextIdx: 1, dupThresh: initialDupThresh}
		// somewhere in (una, nxt], usually on a segment boundary
		point := func() uint64 {
			p := m.una + uint64(rng.Intn(24)+1)*mss
			if rng.Intn(4) == 0 {
				p -= uint64(rng.Intn(mss))
			}
			return min(p, m.nxt)
		}
		sacks := func(above uint64, n int) []wire.SACKBlock {
			var out []wire.SACKBlock
			for ; n > 0; n-- {
				start := above + uint64(rng.Intn(30))*mss
				if b := (wire.SACKBlock{Start: start, End: min(start+uint64(rng.Intn(5)+1)*mss, m.nxt)}); b.Start < b.End {
					out = append(out, b)
				}
			}
			return out
		}
		for step := 0; step < steps; step++ {
			op := rng.Intn(len(seen))
			desc := ""
			switch op {
			case 0:
				n := rng.Intn(8*mss) + 1
				desc = fmt.Sprintf("write %d", n)
				c.Write(n)
				m.writeLen += uint64(n)
				m.maybeSend()
			case 1:
				ctrl.wnd = rng.Intn(40) * mss
				desc = fmt.Sprintf("window %d", ctrl.wnd)
				c.maybeSend()
				m.maybeSend()
			case 2, 3, 4:
				if m.nxt == m.una {
					continue
				}
				ackNum, tsecr := m.una, uint32(rng.Intn(2)*echo40)
				var dsack *wire.SACKBlock
				switch op {
				case 2:
					ackNum = point()
				case 4:
					start := uint64(rng.Intn(int(m.nxt)))
					dsack = &wire.SACKBlock{Start: start, End: start + mss}
				}
				sack := sacks(ackNum+uint64(rng.Intn(3))*mss, rng.Intn(4))
				desc = fmt.Sprintf("ack %d tsecr %d dsack %v sack %v", ackNum, tsecr, dsack, sack)
				feedAck(c, ackNum, tsecr, dsack, sack...)
				m.process(ackNum, tsecr, dsack, sack)
			case 5:
				desc = "tlp"
				c.onTLP()
				m.onTLP()
			case 6:
				if c.rtoCount >= transport.MaxRTOs {
					continue // one more would tear the connection down
				}
				desc = "rto"
				c.onRTO()
				m.onRTO()
			}
			seen[op]++
			if err := m.agree(c); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, desc, err)
			}
		}
	}
	for op, n := range seen {
		if n == 0 {
			t.Errorf("operation %d never ran", op)
		}
	}
}

// ackWindow builds a sender with n segments outstanding whose segments,
// sent over an instant link, reach a sink that recycles them as a
// receiver would. step feeds it one cumulative ack of two segments and
// delivers the two segments that ack clocks out.
func ackWindow(tb testing.TB, n int) (c *Conn, step func()) {
	c = isolatedSender(&recCC{wnd: n * mss, quiet: true})
	c.e.Net.SetPath(c.e.Addr(), c.remote, netem.NewLink(c.sim, netem.Config{}))
	c.e.Net.Attach(c.remote, netem.HandlerFunc(func(pkt *netem.Packet) {
		sp := pkt.Payload.(*segment)
		releaseSegment(sp.seg)
		sp.seg = nil
		wrapPool.Put(sp)
	}))
	c.Write(n * mss)
	if c.sb.len() != n {
		tb.Fatalf("%d outstanding, want %d", c.sb.len(), n)
	}
	return c, func() {
		c.writeLen += 2 * mss
		feedAck(c, c.sndUna+2*mss, echo40, nil)
		c.sim.RunUntil(c.sim.Now()) // deliver; the loss timers lie ahead
	}
}

// BenchmarkTCPAckWindow: one ackWindow step against a window of N
// outstanding. ns/op must be flat in N — per-ack work follows what the
// ack changed, not the window; TestTCPAckWindowAllocFree holds the 0
// allocs/op.
func BenchmarkTCPAckWindow(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			c, step := ackWindow(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			if c.sb.len() != n {
				b.Fatalf("%d outstanding after the run, want %d", c.sb.len(), n)
			}
		})
	}
}

// TestTCPAckWindowAllocFree: the steady-state ack path — scoreboard cut,
// RTT sample, cc callbacks, two new segments out through the pools —
// allocates nothing, at a small window and a large one.
func TestTCPAckWindowAllocFree(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	}) {
		t.Skip("under -race sync.Pool drops a quarter of what is Put, by design: the pooled path's count means nothing")
	}
	for _, n := range []int{64, 4096} {
		c, step := ackWindow(t, n)
		for i := 0; i < 100; i++ {
			step() // warm the pools and the scoreboard's buffer
		}
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("window %d: %v allocs per ack, want 0", n, allocs)
		}
		if c.sb.len() != n {
			t.Errorf("window %d: %d outstanding after the run", n, c.sb.len())
		}
	}
}

// TestScoreboardStorage exercises the container alone — find, insert, cut
// from either side of the gap, the slide back to the front of a full
// buffer — against a plain slice.
func TestScoreboardStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sb scoreboard
	var want []uint64
	next, slid := uint64(0), 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // new data at the tail
			next += uint64(rng.Intn(3) + 1)
			i, ok := sb.find(next)
			if ok || i != len(want) {
				t.Fatalf("find(%d) = %d, %v; want %d, false", next, i, ok, len(want))
			}
			if sb.head > 0 && len(sb.buf) == cap(sb.buf) && sb.head >= len(sb.buf)/2 {
				slid++
			}
			sb.insert(i, &sentSeg{seq: next})
			want = append(want, next)
		case op < 6 && next > 0: // a retransmission somewhere inside
			seq := uint64(rng.Intn(int(next)))
			i, ok := sb.find(seq)
			if j, found := slices.BinarySearch(want, seq); j != i || found != ok {
				t.Fatalf("find(%d) = %d, %v; want %d, %v", seq, i, ok, j, found)
			}
			if !ok {
				sb.insert(i, &sentSeg{seq: seq})
				want = slices.Insert(want, i, seq)
			}
		case len(want) > 0: // cut a prefix, a stretch of the middle, or the tail
			from := 0
			if op > 7 {
				from = rng.Intn(len(want))
			}
			to := min(from+rng.Intn(4), len(want))
			sb.cut(from, to)
			want = slices.Delete(want, from, to)
		}
		if sb.len() != len(want) {
			t.Fatalf("step %d: len %d, want %d", step, sb.len(), len(want))
		}
		for i, ss := range sb.live() {
			if ss.seq != want[i] {
				t.Fatalf("step %d: live[%d].seq = %d, want %d", step, i, ss.seq, want[i])
			}
		}
	}
	if slid == 0 {
		t.Error("the slide-to-front path never ran")
	}
}
