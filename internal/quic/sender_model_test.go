package quic

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"quiclab/internal/trace"
	"quiclab/internal/wire"
)

// Differential tests of the sender's three structures against the code
// they replaced, kept here verbatim as models: the streamDemand walk and the
// index-cursor loop over streamOrder + streams[id], and the sent map +
// transmit-ordered sentOrder + spurious map. Seeded random scripts drive a
// real Conn and a model side by side and compare after every step.

// harnessConn dials a connection and closes it: a closed connection still
// opens streams, builds packets, tracks sent packets and processes acks
// when asked to, but maybeSend and the loss alarm do nothing on their own,
// so a script decides every step.
func harnessConn(tb *testbed) *Conn {
	c := tb.client.Dial(2)
	c.Close()
	c.connected = true
	return c
}

// --- (i) stream demand and rotation ----------------------------------------

type modelStream struct {
	id                uint32
	writeLen, sentLen uint64
	finWrite, finSent bool
	sendLimit         uint64
}

func (s *modelStream) sendPending() bool {
	return s.sentLen < s.writeLen || (s.finWrite && !s.finSent)
}

func (s *modelStream) sendWindow() uint64 {
	if s.sentLen >= s.sendLimit {
		return 0
	}
	return s.sendLimit - s.sentLen
}

// walkModel is the stream side of the sender as it was: every stream ever
// added stays in streamOrder, and demand and scheduling walk it.
type walkModel struct {
	streams          map[uint32]*modelStream
	streamOrder      []uint32
	rrCursor         int
	connSent         uint64
	connSendLimit    uint64
	peerStreamWindow uint64
	flowBlocked      bool
}

func (c *walkModel) addStream(id uint32) {
	c.streams[id] = &modelStream{id: id, sendLimit: c.peerStreamWindow}
	c.streamOrder = append(c.streamOrder, id)
}

// streamDemand is the deleted walk.
func (c *walkModel) streamDemand() (pending, sendable bool) {
	connOpen := c.connSent < c.connSendLimit
	for _, id := range c.streamOrder {
		if s := c.streams[id]; s.sendPending() {
			if !connOpen {
				return true, false
			}
			if s.sendWindow() > 0 {
				return true, true
			}
			pending = true
		}
	}
	return pending, false
}

// build is the deleted cursor loop: it returns the stream frames taken and
// the streams a Blocked frame was queued for.
func (c *walkModel) build(budget int) (frames []wire.StreamFrame, blocked []uint32) {
	streamOverhead := (&wire.StreamFrame{}).Size()
	for tries := 0; tries < len(c.streamOrder) && budget > streamOverhead; tries++ {
		c.rrCursor = (c.rrCursor + 1) % len(c.streamOrder)
		s := c.streams[c.streamOrder[c.rrCursor]]
		if !s.sendPending() {
			continue
		}
		avail := s.sendWindow()
		if connAvail := c.connSendLimit - c.connSent; connAvail < avail {
			avail = connAvail
		}
		if avail == 0 {
			if !c.flowBlocked {
				c.flowBlocked = true
				blocked = append(blocked, s.id)
			}
			continue
		}
		take := uint64(budget - streamOverhead)
		if p := s.writeLen - s.sentLen; p < take {
			take = p
		}
		if avail < take {
			take = avail
		}
		fin := s.finWrite && s.sentLen+take == s.writeLen
		f := wire.StreamFrame{StreamID: s.id, Offset: s.sentLen, Length: uint32(take), Fin: fin}
		s.sentLen += take
		c.connSent += take
		if fin {
			s.finSent = true
		}
		frames = append(frames, f)
		budget -= f.Size()
		c.flowBlocked = false
	}
	return frames, blocked
}

func (c *walkModel) applyPeerParams(streamWindow, connWindow uint64) {
	c.peerStreamWindow = streamWindow
	if connWindow > c.connSendLimit || c.connSent == 0 {
		c.connSendLimit = connWindow
	}
	for _, id := range c.streamOrder {
		s := c.streams[id]
		if s.sentLen == 0 && s.sendLimit != streamWindow {
			s.sendLimit = streamWindow
		}
	}
}

func (c *walkModel) onWindowUpdate(id uint32, offset uint64) {
	if id == 0 {
		if offset > c.connSendLimit {
			c.connSendLimit = offset
		}
	} else if s, ok := c.streams[id]; ok && offset > s.sendLimit {
		s.sendLimit = offset
	}
}

// streamOps weighs the script's steps: open, write, stream window update,
// connection window update, peer params, build.
type streamOps [6]int

// streamScript runs one seeded script against a real connection and the
// walk model, comparing demand, the frames each build takes, the Blocked
// frames it queues and the sender invariants after every step.
func streamScript(t *testing.T, seed int64, steps int, weights streamOps, streamWin, connWin uint64) {
	rng := rand.New(rand.NewSource(seed))
	tb := newTestbed(seed, fastLink(), Config{StreamRecvWindow: streamWin, ConnRecvWindow: connWin}, Config{})
	c := harnessConn(tb)
	m := &walkModel{streams: map[uint32]*modelStream{}, connSendLimit: connWin, peerStreamWindow: streamWin}
	var ids, open []uint32 // every stream; those not yet fin-written
	for step := 0; step < steps; step++ {
		op := pick(rng, weights[:])
		what := ""
		switch {
		case op == 0 || len(ids) == 0:
			// Ids in no particular order, as peer-initiated streams arrive.
			id := uint32(rng.Intn(1 << 20))
			for m.streams[id] != nil || id == 0 {
				id++
			}
			c.addStream(id)
			m.addStream(id)
			ids, open = append(ids, id), append(open, id)
			what = fmt.Sprintf("open %d", id)
		case op == 1 && len(open) > 0:
			i := rng.Intn(len(open))
			id, n, fin := open[i], rng.Intn(3000), rng.Intn(3) == 0
			if rng.Intn(8) == 0 {
				n = 0
			}
			c.streams[id].Write(n, fin)
			ms := m.streams[id]
			ms.writeLen += uint64(n)
			if fin {
				ms.finWrite = true
				open = slices.Delete(open, i, i+1)
			}
			what = fmt.Sprintf("write %d %d fin=%v", id, n, fin)
		case op == 2:
			id := ids[rng.Intn(len(ids))]
			offset := m.streams[id].sendLimit + uint64(rng.Intn(4000)) - 1000
			c.onWindowUpdate(&wire.WindowUpdateFrame{StreamID: id, Offset: offset})
			m.onWindowUpdate(id, offset)
			what = fmt.Sprintf("window update %d to %d", id, offset)
		case op == 3:
			offset := m.connSendLimit + uint64(rng.Intn(8000)) - 2000
			c.onWindowUpdate(&wire.WindowUpdateFrame{Offset: offset})
			m.onWindowUpdate(0, offset)
			what = fmt.Sprintf("conn window update to %d", offset)
		case op == 4:
			sw, cw := uint64(rng.Intn(6000)), m.connSendLimit+uint64(rng.Intn(4000))-2000
			c.applyPeerParams(&wire.CryptoFrame{StreamWindow: sw, ConnWindow: cw})
			if sw != 0 && cw != 0 {
				m.applyPeerParams(sw, cw)
			}
			what = fmt.Sprintf("peer params %d %d", sw, cw)
		default:
			// The budget left for stream data is what a crypto frame of a
			// random size leaves of the packet.
			budget := MaxPacketSize - wire.QUICHeaderSize
			if rng.Intn(4) > 0 {
				cf := &wire.CryptoFrame{BodyLen: uint32(rng.Intn(budget - (&wire.CryptoFrame{}).Size() + 1))}
				c.cryptoQ = append(c.cryptoQ, cf)
				budget -= cf.Size()
			}
			what = fmt.Sprintf("build with budget %d", budget)
			want, wantBlocked := m.build(budget)
			var got []wire.StreamFrame
			if p, _ := c.buildPacket(); p != nil {
				for _, f := range p.frames {
					if sf, ok := f.(*wire.StreamFrame); ok {
						got = append(got, *sf)
					}
				}
			}
			var gotBlocked []uint32
			for _, f := range c.controlQ {
				gotBlocked = append(gotBlocked, f.(*wire.BlockedFrame).StreamID)
			}
			c.controlQ = c.controlQ[:0]
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (%s): served %+v, the index walk serves %+v", seed, step, what, got, want)
			}
			if !slices.Equal(gotBlocked, wantBlocked) {
				t.Fatalf("seed %d step %d (%s): Blocked for %v, the index walk blocks %v", seed, step, what, gotBlocked, wantBlocked)
			}
		}
		gp, gs := c.streamDemand()
		wp, ws := m.streamDemand()
		if gp != wp || gs != ws {
			t.Fatalf("seed %d step %d (%s): streamDemand = (%v, %v), the walk says (%v, %v)", seed, step, what, gp, gs, wp, ws)
		}
		if c.connSent != m.connSent || c.connSendLimit != m.connSendLimit || c.flowBlocked != m.flowBlocked {
			t.Fatalf("seed %d step %d (%s): connSent %d limit %d blocked %v, model %d %d %v", seed, step, what,
				c.connSent, c.connSendLimit, c.flowBlocked, m.connSent, m.connSendLimit, m.flowBlocked)
		}
		if err := c.checkSender(); err != nil {
			t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
		}
	}
}

// TestStreamDemandMatchesWalk leans on flow control: tight windows, many
// window updates and peer-parameter changes, so pending-but-not-sendable
// comes and goes at both the stream and the connection level.
func TestStreamDemandMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		streamScript(t, seed, 1500, streamOps{2, 6, 4, 2, 1, 6}, 3000, 12000)
	}
}

// TestRotationMatchesIndexWalk leans on the cursor: many streams opened
// between builds, most finishing, budgets from nothing to a full packet,
// windows wide enough that several streams fit one packet and leave the
// rotation together.
func TestRotationMatchesIndexWalk(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		streamScript(t, seed, 1500, streamOps{5, 8, 1, 1, 0, 8}, 1<<20, 1<<30)
	}
}

// --- (ii) the sent ring and the spurious watch list ------------------------

type modelPkt struct {
	size, nacks int
}

// mapModel is the loss-detection side of the sender as it was.
type mapModel struct {
	sent          map[uint64]*modelPkt
	sentOrder     []uint64
	spurious      map[uint64]bool
	inFlight      int
	nackThreshold int
	adaptive      bool
	retransmits   int
	log           []string // acked / lost / false-loss events, in order
}

func (c *mapModel) compactSentOrder() {
	for len(c.sentOrder) > 0 {
		if _, ok := c.sent[c.sentOrder[0]]; ok {
			break
		}
		c.sentOrder = c.sentOrder[1:]
	}
}

// onAckFrame is the deleted sweep (NACK detection; the RTT sample and the
// congestion controller are not what changed).
func (c *mapModel) onAckFrame(f *wire.AckFrame) {
	c.compactSentOrder()
	var scratch []uint64
	for pn := range c.spurious {
		scratch = append(scratch, pn)
	}
	slices.Sort(scratch)
	for _, pn := range scratch {
		if f.Acked(pn) {
			c.log = append(c.log, fmt.Sprint("false ", pn))
			delete(c.spurious, pn)
			if c.adaptive {
				next := c.nackThreshold + c.nackThreshold/2 + 1
				if next > 128 {
					next = 128
				}
				c.nackThreshold = next
			}
		} else if pn < f.LargestAcked && len(c.spurious) > 4096 {
			delete(c.spurious, pn)
		}
	}
	var lost []uint64
	for _, pn := range c.sentOrder {
		if pn > f.LargestAcked {
			break
		}
		sp, ok := c.sent[pn]
		if !ok {
			continue
		}
		if f.Acked(pn) {
			delete(c.sent, pn)
			c.inFlight -= sp.size
			c.log = append(c.log, fmt.Sprint("acked ", pn))
		} else {
			sp.nacks++
			if sp.nacks >= c.nackThreshold {
				lost = append(lost, pn)
			}
		}
	}
	for _, pn := range lost {
		c.declareLost(pn)
	}
}

func (c *mapModel) declareLost(pn uint64) {
	sp, ok := c.sent[pn]
	if !ok {
		return
	}
	delete(c.sent, pn)
	c.inFlight -= sp.size
	c.retransmits++
	c.log = append(c.log, fmt.Sprint("lost ", pn))
	c.spurious[pn] = true
}

func (c *mapModel) retransmitOldest(n int) {
	c.compactSentOrder()
	count := 0
	for _, pn := range c.sentOrder {
		if count >= n {
			break
		}
		sp, ok := c.sent[pn]
		if !ok {
			continue
		}
		delete(c.sent, pn)
		c.inFlight -= sp.size
		c.retransmits++
		c.spurious[pn] = true
		count++
	}
}

// chooser draws a script's choices: a seeded rand.Rand in the tests, the
// input bytes in FuzzAckWatch.
type chooser interface{ Intn(n int) int }

// byteChooser reads each choice from as many of the next input bytes as n
// needs; once the input runs out, every choice is 0.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	v := 0
	for m := 1; m < n && len(c.b) > 0; m <<= 8 {
		v = v<<8 | int(c.b[0])
		c.b = c.b[1:]
	}
	return v % n
}

// pick draws an index with probability proportional to its weight.
func pick(ch chooser, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	op, k := 0, ch.Intn(total)
	for k >= weights[op] {
		k -= weights[op]
		op++
	}
	return op
}

// randomAck builds an ack frame shaped like a receiver's: up to 40
// descending, disjoint ranges (more than maxAckRanges), each from one to
// thousands of packet numbers long, the top one near or a little past the
// highest packet number sent, the lowest reaching below, into or above the
// watch list or staying near the top; now and then it claims a largest
// acked above what its ranges cover.
func randomAck(ch chooser, nextPN uint64, watched []uint64) *wire.AckFrame {
	f := &wire.AckFrame{}
	hi := nextPN + 2
	if ch.Intn(2) == 0 && nextPN > 40 { // acks mostly arrive near the head
		hi = nextPN - uint64(ch.Intn(40))
	}
	floor := hi - min(hi, uint64(ch.Intn(200))) // where the lowest range should end
	if len(watched) > 0 {
		switch ch.Intn(4) {
		case 0:
			floor = watched[0] - min(watched[0], uint64(ch.Intn(50)))
		case 1:
			floor = watched[ch.Intn(len(watched))]
		case 2:
			floor = watched[len(watched)-1] + uint64(ch.Intn(50))
		}
	}
	k := ch.Intn(40) + 1
	scale := int(max((hi-min(floor, hi))/uint64(2*k), 1)) // mean span and gap that reach floor
	for top := hi - 1; len(f.Ranges) < k && top >= 1; {
		smallest := top - min(top-1, uint64(ch.Intn(2*scale)))
		f.Ranges = append(f.Ranges, wire.AckRange{Smallest: smallest, Largest: top})
		gap := 2 + uint64(ch.Intn(2*scale))
		if smallest <= gap {
			break
		}
		top = smallest - gap
	}
	if len(f.Ranges) > 0 {
		f.LargestAcked = f.Ranges[0].Largest
		if ch.Intn(8) == 0 { // a frame need not be consistent
			f.LargestAcked += uint64(ch.Intn(3))
		}
	}
	return f
}

// ackHarness is a connection and the map model it is compared with, both
// stepped by one script.
type ackHarness struct {
	c   *Conn
	m   *mapModel
	rec *trace.Recorder
	// acks counts the acks processed; over those that arrived with more
	// than maxWatched watched, and trims those that also passed over some
	// of them, so the bound dropped entries before the frame's lowest range.
	acks, over, trims int
	// probed counts the records the connection's retransmitOldest gave
	// up on; with its declared losses, that is every retransmission.
	probed int
}

func newAckHarness(tb *testbed, rec *trace.Recorder, adaptive bool) *ackHarness {
	c := harnessConn(tb)
	m := &mapModel{sent: map[uint64]*modelPkt{}, spurious: map[uint64]bool{}, nackThreshold: DefaultNACKThreshold, adaptive: adaptive}
	for pn := c.sent.base; pn < c.sent.end; pn++ { // the handshake's own packets
		if sp := c.sent.get(pn); sp != nil {
			m.sent[pn] = &modelPkt{size: sp.size}
			m.sentOrder = append(m.sentOrder, pn)
			m.inFlight += sp.size
		}
	}
	rec.Events = rec.Events[:0]
	return &ackHarness{c: c, m: m, rec: rec}
}

// send sends n packets, each a stream frame of length bytes when
// retransmittable, else an ack.
func (h *ackHarness) send(n int, retransmittable bool, length int) {
	for ; n > 0; n-- {
		var f wire.Frame = &wire.AckFrame{}
		if retransmittable {
			f = &wire.StreamFrame{StreamID: 1, Length: uint32(length)}
		}
		pn := h.c.nextPN
		h.c.sendFrames([]wire.Frame{f}, retransmittable)
		if retransmittable {
			size := wire.QUICHeaderSize + f.Size()
			h.m.sent[pn] = &modelPkt{size: size}
			h.m.sentOrder = append(h.m.sentOrder, pn)
			h.m.inFlight += size
		}
	}
}

// giveUp sends n tracked packets and gives up on the oldest lost of all.
func (h *ackHarness) giveUp(n, lost int) {
	h.send(n, true, 1000)
	h.retransmitOldest(lost)
}

// retransmitOldest requeues the n oldest tracked packets on both sides.
func (h *ackHarness) retransmitOldest(n int) {
	live := h.c.sent.live
	h.c.retransmitOldest(n)
	h.m.retransmitOldest(n)
	h.probed += live - h.c.sent.live
}

// ackOps weighs a script's steps: send one packet, a burst, an ack, declare
// one packet lost, retransmit the oldest few, give up on many.
type ackOps [6]int

// step runs one step drawn from ch with weights w and says what it did.
func (h *ackHarness) step(ch chooser, w ackOps) string {
	c, m := h.c, h.m
	switch pick(ch, w[:]) {
	case 0:
		retransmittable := ch.Intn(4) > 0
		h.send(1, retransmittable, ch.Intn(1200))
		return fmt.Sprintf("send pn %d tracked=%v", c.nextPN-1, retransmittable)
	case 1:
		// A burst of ack-only packets, then tracked ones: the span from
		// base jumps by more than one doubling.
		h.send(ch.Intn(300), false, 0)
		h.send(ch.Intn(100)+1, true, ch.Intn(1200))
		return fmt.Sprintf("burst to pn %d", c.nextPN-1)
	case 2:
		f := randomAck(ch, c.nextPN, c.spurious)
		if n := len(c.spurious); n > maxWatched {
			h.over++
			if i, _ := slices.BinarySearch(c.spurious, f.Ranges[len(f.Ranges)-1].Smallest); i > 0 {
				h.trims++
			}
		}
		h.acks++
		c.onAckFrame(f)
		m.onAckFrame(f)
		return fmt.Sprintf("ack of %d ranges, largest %d, lowest %+v", len(f.Ranges), f.LargestAcked, f.Ranges[len(f.Ranges)-1])
	case 3:
		// Any packet still tracked, not only the oldest.
		pn := uint64(ch.Intn(int(c.nextPN)))
		for c.sent.live > 0 && c.sent.get(pn) == nil {
			pn = (pn + 1) % c.nextPN
		}
		if c.sent.live > 0 {
			c.declareLost(pn)
			m.declareLost(pn)
		}
		return fmt.Sprintf("declare %d lost", pn)
	case 4:
		n := ch.Intn(4)
		h.retransmitOldest(n)
		return fmt.Sprintf("retransmit oldest %d", n)
	default:
		n := ch.Intn(1500)
		h.giveUp(n, n)
		return fmt.Sprintf("give up on %d, %d watched", n, len(c.spurious))
	}
}

// TestSentRingMatchesMapAndOrder drives a connection's ring and the map +
// sentOrder model through random sends (tracked or ack-only), receiver-
// shaped acks, direct loss declarations and probe requeues, with bursts
// that outgrow the ring several times over and a give-up large enough to
// reach the spurious list's bound; then recycles the record through
// Endpoint.Reset and does it again on the warm ring.
func TestSentRingMatchesMapAndOrder(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rec := trace.NewDetailed()
		cfg := Config{Tracer: rec, AdaptiveNACK: seed%2 == 0}
		tb := newTestbed(seed, fastLink(), cfg, Config{})
		var prev *Conn
		for round := 0; round < 3; round++ {
			h := newAckHarness(tb, rec, cfg.AdaptiveNACK)
			c := h.c
			if prev != nil && c != prev {
				t.Fatal("Endpoint.Reset did not recycle the connection record")
			}
			if prev != nil && len(c.sent.slots) == 0 {
				t.Fatal("the recycled record lost its ring")
			}
			for step := 0; step < 600; step++ {
				what := ""
				if round == 1 && step == 100 {
					// Once: enough given up on at once to pass the watch
					// list's bound, which later acks then apply.
					h.giveUp(4500, 4400)
					what = "give up on 4400"
				} else {
					what = h.step(rng, ackOps{40, 4, 40, 6, 10, 0})
				}
				compareSender(t, fmt.Sprintf("seed %d round %d step %d (%s)", seed, round, step, what), h)
			}
			tb.sim.Reset(seed)
			tb.net.Reset()
			tb.client.Reset(cfg)
			rec.Reset()
			for i := range c.sent.slots {
				if sp := &c.sent.slots[i]; sp.live || sp.inline || sp.head() != (wire.StreamFrame{}) || len(sp.more) != 0 || sp.size != 0 {
					t.Fatalf("seed %d round %d: slot %d survived the recycle: %+v", seed, round, i, *sp)
				}
			}
			prev = c
		}
	}
}

// TestWatchBoundMatchesMap holds the watch list above its bound across
// many acks — large give-ups between receiver-shaped acks — so the bound
// trims the list again and again, against the model's rule.
func TestWatchBoundMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rec := trace.NewDetailed()
		cfg := Config{Tracer: rec, AdaptiveNACK: seed%2 == 0}
		h := newAckHarness(newTestbed(seed, fastLink(), cfg, Config{}), rec, cfg.AdaptiveNACK)
		h.giveUp(maxWatched+500, maxWatched+400)
		for step := 0; step < 400; step++ {
			what := h.step(rng, ackOps{2, 1, 30, 1, 1, 60})
			compareSender(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, what), h)
		}
		if h.over < 40 || h.trims < 30 {
			t.Errorf("seed %d: %d acks, %d over the bound, %d trimmed before the lowest range; the script needs at least 40 and 30",
				seed, h.acks, h.over, h.trims)
		}
	}
}

// FuzzAckWatch runs the same comparison over scripts the fuzzer writes
// (`make chaos` runs it for a bounded time): the first byte picks the NACK
// policy, the rest every step and its arguments.
func FuzzAckWatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<12 { // each step re-sorts a model set of thousands
			t.Skip()
		}
		rec := trace.NewDetailed()
		ch := &byteChooser{script}
		cfg := Config{Tracer: rec, AdaptiveNACK: ch.Intn(2) == 1}
		h := newAckHarness(newTestbed(1, fastLink(), cfg, Config{}), rec, cfg.AdaptiveNACK)
		for step := 0; len(ch.b) > 0; step++ {
			what := h.step(ch, ackOps{1, 1, 1, 1, 1, 1})
			compareSender(t, fmt.Sprintf("step %d (%s)", step, what), h)
		}
	})
}

// ackWatchConn is a sender watching n declared-lost packets, every tenth
// packet number, and the ack its peer would send: the newest maxAckRanges
// ranges of what it received, the lost packets the gaps between them. The
// ack covers no watched packet and the ring is empty, so feeding it again
// and again leaves the connection as it was.
func ackWatchConn(n int) (*Conn, *wire.AckFrame) {
	c := harnessConn(newTestbed(1, fastLink(), Config{}, Config{}))
	c.retransmitOldest(c.sent.live)
	c.spurious = c.spurious[:0]
	for k := 1; k <= n; k++ {
		c.spurious = append(c.spurious, uint64(10*k))
	}
	f := &wire.AckFrame{LargestAcked: uint64(10*n + 9)}
	for k := n; k > n-maxAckRanges; k-- {
		f.Ranges = append(f.Ranges, wire.AckRange{Smallest: uint64(10*k + 1), Largest: uint64(10*k + 9)})
	}
	return c, f
}

// BenchmarkQUICAckWatch: one such ack against a watch list of N. ns/op must
// be flat in N — per-ack work follows the frame, not the list;
// TestAckWatchAllocFree holds the 0 allocs/op.
func BenchmarkQUICAckWatch(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			c, f := ackWatchConn(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.onAckFrame(f)
			}
			if len(c.spurious) != n {
				b.Fatalf("%d watched after the run, want %d", len(c.spurious), n)
			}
		})
	}
}

// TestAckWatchAllocFree: the watch and the ring walk of a steady-state ack
// allocate nothing, at a short watch list and one at the bound.
func TestAckWatchAllocFree(t *testing.T) {
	for _, n := range []int{64, maxWatched} {
		c, f := ackWatchConn(n)
		if allocs := testing.AllocsPerRun(1000, func() { c.onAckFrame(f) }); allocs != 0 {
			t.Errorf("watch list of %d: %v allocs per ack, want 0", n, allocs)
		}
		if len(c.spurious) != n {
			t.Errorf("watch list of %d: %d watched after the run", n, len(c.spurious))
		}
	}
}

func compareSender(t *testing.T, at string, h *ackHarness) {
	t.Helper()
	c, m, rec := h.c, h.m, h.rec
	if err := c.checkSender(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if c.inFlight != m.inFlight || c.sent.live != len(m.sent) {
		t.Fatalf("%s: inFlight %d over %d records, model %d over %d", at, c.inFlight, c.sent.live, m.inFlight, len(m.sent))
	}
	for pn, mp := range m.sent {
		if sp := c.sent.get(pn); sp == nil || sp.pn != pn || sp.size != mp.size || int(sp.nacks) != mp.nacks {
			t.Fatalf("%s: ring has %+v for pn %d, model %+v", at, sp, pn, *mp)
		}
	}
	watched := make([]uint64, 0, len(m.spurious))
	for pn := range m.spurious {
		watched = append(watched, pn)
	}
	slices.Sort(watched)
	if !slices.Equal(c.spurious, watched) {
		t.Fatalf("%s: spurious list holds %d, the model's set %d; the last few are %v and %v", at,
			len(c.spurious), len(watched), c.spurious[max(0, len(c.spurious)-5):], watched[max(0, len(watched)-5):])
	}
	rexmits := rec.Counter("declared_lost") + h.probed
	if c.nackThreshold != m.nackThreshold || rexmits != m.retransmits {
		t.Fatalf("%s: nackThreshold %d retransmits %d, model %d %d", at, c.nackThreshold, rexmits, m.nackThreshold, m.retransmits)
	}
	var log []string
	for _, e := range rec.Events {
		switch e.Type {
		case trace.EventPacketAcked:
			log = append(log, fmt.Sprint("acked ", e.PN))
		case trace.EventPacketLost:
			log = append(log, fmt.Sprint("lost ", e.PN))
		case trace.EventSpuriousLoss:
			log = append(log, fmt.Sprint("false ", e.PN))
		}
	}
	if !slices.Equal(log, m.log) {
		t.Fatalf("%s: events %v, model %v", at, log, m.log)
	}
	rec.Events, m.log = rec.Events[:0], m.log[:0]
}
