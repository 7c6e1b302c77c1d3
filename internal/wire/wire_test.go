package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestStreamFrameRoundTrip(t *testing.T) {
	f := &StreamFrame{StreamID: 5, Offset: 123456, Length: 1000, Fin: true}
	b := f.AppendTo(nil)
	if len(b) != f.Size() {
		t.Fatalf("Size()=%d, encoded len=%d", f.Size(), len(b))
	}
	g, rest, err := decodeFrame(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	if !reflect.DeepEqual(f, g) {
		t.Fatalf("round trip: %+v != %+v", f, g)
	}
}

func TestAckFrameRoundTrip(t *testing.T) {
	f := &AckFrame{
		LargestAcked:      900,
		AckDelay:          250 * time.Microsecond,
		Ranges:            []AckRange{{Smallest: 850, Largest: 900}, {Smallest: 1, Largest: 800}},
		ReceiveTimestamps: 2,
	}
	b := f.AppendTo(nil)
	if len(b) != f.Size() {
		t.Fatalf("Size()=%d, encoded len=%d", f.Size(), len(b))
	}
	g, rest, err := decodeFrame(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(f, g) {
		t.Fatalf("round trip: %+v != %+v", f, g)
	}
	if err := f.ValidateRanges(); err != nil {
		t.Fatal(err)
	}
}

func TestAckFrameAcked(t *testing.T) {
	f := &AckFrame{LargestAcked: 10, Ranges: []AckRange{{Smallest: 8, Largest: 10}, {Smallest: 1, Largest: 5}}}
	for _, tc := range []struct {
		pn   uint64
		want bool
	}{{0, false}, {1, true}, {5, true}, {6, false}, {7, false}, {8, true}, {10, true}, {11, false}} {
		if got := f.Acked(tc.pn); got != tc.want {
			t.Errorf("Acked(%d) = %v, want %v", tc.pn, got, tc.want)
		}
	}
}

func TestValidateRangesRejectsBad(t *testing.T) {
	cases := []*AckFrame{
		{LargestAcked: 10, Ranges: nil},
		{LargestAcked: 10, Ranges: []AckRange{{Smallest: 1, Largest: 9}}},            // head mismatch
		{LargestAcked: 10, Ranges: []AckRange{{Smallest: 11, Largest: 10}}},          // inverted
		{LargestAcked: 10, Ranges: []AckRange{{5, 10}, {4, 6}}},                      // overlap
		{LargestAcked: 10, Ranges: []AckRange{{Smallest: 5, Largest: 10}, {11, 12}}}, // unordered
	}
	for i, f := range cases {
		if err := f.ValidateRanges(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestQUICPacketRoundTrip(t *testing.T) {
	p := &QUICPacket{
		ConnID:       0xdeadbeef,
		PacketNumber: 77,
		Frames: []Frame{
			&StreamFrame{StreamID: 3, Offset: 10, Length: 500},
			&AckFrame{LargestAcked: 9, Ranges: []AckRange{{Smallest: 1, Largest: 9}}},
			&WindowUpdateFrame{StreamID: 0, Offset: 1 << 20},
			&BlockedFrame{StreamID: 7},
			&StopWaitingFrame{LeastUnacked: 5},
			&CryptoFrame{Kind: CryptoFullCHLO, BodyLen: 64},
			&PingFrame{},
			&ConnectionCloseFrame{ErrorCode: 42},
		},
	}
	b := p.AppendTo(nil)
	if len(b) != p.Size() {
		t.Fatalf("Size()=%d, encoded=%d", p.Size(), len(b))
	}
	q, err := DecodeQUICPacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", p, q)
	}
}

func TestQUICPacketFitsMTU(t *testing.T) {
	p := &QUICPacket{Frames: []Frame{&StreamFrame{Length: uint32(MaxQUICPayload - (&StreamFrame{}).Size())}}}
	if p.Size() > 1350 {
		t.Fatalf("full packet %d > 1350", p.Size())
	}
}

func TestDecodeQUICTruncated(t *testing.T) {
	p := &QUICPacket{PacketNumber: 1, Frames: []Frame{&StreamFrame{Length: 100}}}
	b := p.AppendTo(nil)
	for _, cut := range []int{0, 5, 14, 20, len(b) - 13} {
		if cut >= len(b) {
			continue
		}
		if _, err := DecodeQUICPacket(b[:cut]); err == nil {
			t.Errorf("cut=%d: expected error", cut)
		}
	}
}

// Property: SplitAckRanges produces valid descending ranges that cover
// exactly the input set.
func TestPropertySplitAckRanges(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		seen := map[uint64]bool{}
		var pns []uint64
		for i := 0; i < int(n); i++ {
			pn := uint64(r.Intn(200))
			if !seen[pn] {
				seen[pn] = true
				pns = append(pns, pn)
			}
		}
		// sort ascending
		for i := 1; i < len(pns); i++ {
			for j := i; j > 0 && pns[j] < pns[j-1]; j-- {
				pns[j], pns[j-1] = pns[j-1], pns[j]
			}
		}
		ranges := SplitAckRanges(pns, 0)
		if len(pns) == 0 {
			return ranges == nil
		}
		af := &AckFrame{LargestAcked: pns[len(pns)-1], Ranges: ranges}
		if err := af.ValidateRanges(); err != nil {
			return false
		}
		covered := 0
		for _, rg := range ranges {
			covered += int(rg.Largest - rg.Smallest + 1)
		}
		if covered != len(pns) {
			return false
		}
		for _, pn := range pns {
			if !af.Acked(pn) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAckRangesCap(t *testing.T) {
	// Every other packet received -> many ranges; cap keeps newest.
	var pns []uint64
	for i := uint64(0); i < 100; i += 2 {
		pns = append(pns, i)
	}
	ranges := SplitAckRanges(pns, 10)
	if len(ranges) != 10 {
		t.Fatalf("got %d ranges, want 10", len(ranges))
	}
	if ranges[0].Largest != 98 {
		t.Fatalf("newest range largest = %d, want 98", ranges[0].Largest)
	}
}

func TestTCPSegmentRoundTrip(t *testing.T) {
	s := &TCPSegment{
		SYN: true, ACK: true,
		Seq: 1000, AckNum: 2000,
		Window: 65536, Length: 0,
		TSVal: 111, TSEcr: 222,
		SACK: []SACKBlock{{Start: 3000, End: 4000}},
	}
	b := s.AppendTo(nil)
	if len(b) != s.Size() {
		t.Fatalf("Size()=%d, encoded=%d", s.Size(), len(b))
	}
	g, err := DecodeTCPSegment(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Seq != 1000 || g.AckNum != 2000 || !g.SYN || !g.ACK || g.FIN {
		t.Fatalf("header mismatch: %+v", g)
	}
	if g.TSVal != 111 || g.TSEcr != 222 {
		t.Fatalf("timestamps mismatch: %+v", g)
	}
	if len(g.SACK) != 1 || g.SACK[0] != (SACKBlock{3000, 4000}) {
		t.Fatalf("sack mismatch: %+v", g.SACK)
	}
	// Window is scaled on the wire: recovered value within 256 bytes.
	if g.Window > s.Window || s.Window-g.Window > 255 {
		t.Fatalf("window %d vs %d", g.Window, s.Window)
	}
}

func TestTCPSegmentDSACK(t *testing.T) {
	s := &TCPSegment{
		ACK:    true,
		AckNum: 5000,
		DSACK:  &SACKBlock{Start: 1000, End: 2000},
		SACK:   []SACKBlock{{Start: 6000, End: 7000}},
	}
	g, err := DecodeTCPSegment(s.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if g.DSACK == nil || *g.DSACK != (SACKBlock{1000, 2000}) {
		t.Fatalf("dsack not recovered: %+v", g.DSACK)
	}
	if len(g.SACK) != 1 || g.SACK[0] != (SACKBlock{6000, 7000}) {
		t.Fatalf("sack blocks: %+v", g.SACK)
	}
}

func TestTCPSegmentPayloadSize(t *testing.T) {
	s := &TCPSegment{ACK: true, Length: TCPMSS}
	g, err := DecodeTCPSegment(s.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if g.Length != TCPMSS {
		t.Fatalf("payload len %d, want %d", g.Length, TCPMSS)
	}
	if s.WireSize() > 1500 {
		t.Fatalf("full segment wire size %d exceeds MTU", s.WireSize())
	}
}

// Property: TCP segments round-trip their flag/seq/sack structure for
// arbitrary small values.
func TestPropertyTCPSegmentRoundTrip(t *testing.T) {
	f := func(seq, ack uint32, syn, fin bool, nsack uint8, payload uint16) bool {
		s := &TCPSegment{
			SYN: syn, ACK: true, FIN: fin,
			Seq: uint64(seq), AckNum: uint64(ack),
			Window: 1 << 16,
			Length: int(payload % 1400),
			TSVal:  7,
		}
		for i := 0; i < int(nsack%4); i++ {
			base := uint64(ack) + uint64(i+1)*3000
			s.SACK = append(s.SACK, SACKBlock{Start: base, End: base + 1000})
		}
		g, err := DecodeTCPSegment(s.AppendTo(nil))
		if err != nil {
			return false
		}
		if g.Seq != uint64(seq) || g.AckNum != uint64(ack) || g.SYN != syn || g.FIN != fin {
			return false
		}
		wantSACK := len(s.SACK)
		if max := s.maxSACKBlocks(); wantSACK > max {
			wantSACK = max // encoder caps blocks to the 40-byte option space
		}
		if g.Length != s.Length || len(g.SACK) != wantSACK {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameTypeStrings(t *testing.T) {
	frames := []Frame{
		&StreamFrame{}, &AckFrame{}, &WindowUpdateFrame{}, &BlockedFrame{},
		&StopWaitingFrame{}, &CryptoFrame{}, &PingFrame{}, &ConnectionCloseFrame{},
	}
	seen := map[string]bool{}
	for _, f := range frames {
		s := f.Type().String()
		if s == "" || seen[s] {
			t.Fatalf("bad/dup frame type string %q", s)
		}
		seen[s] = true
	}
	if FrameType(99).String() != "FRAME(99)" {
		t.Fatal("unknown frame type string")
	}
	for _, k := range []CryptoKind{CryptoInchoateCHLO, CryptoREJ, CryptoFullCHLO, CryptoSHLO} {
		if k.String() == "" {
			t.Fatal("empty crypto kind string")
		}
	}
}
