package tcp_test

import (
	"testing"
	"time"

	"quiclab/internal/core"
	"quiclab/internal/device"
	"quiclab/internal/tcp"
	"quiclab/internal/web"
)

// TestScoreboardHoldsNoDeadEntries runs the cell that used to be TCP's
// slow mode — 8 MiB at 100 Mbps with 1 % loss under the loss pattern of
// core.CellSeed(4, "lossy_reorder", 8, 0), where thousands of dead slots
// piled up behind one live head and every ack walked them — and checks at
// every ack the server processes that the scoreboard is strictly
// ascending and Σ(end-seq) over it equals the bytes in flight, so nothing
// dead can sit in it. The PLT pins the simulated answer.
func TestScoreboardHoldsNoDeadEntries(t *testing.T) {
	acks := 0
	var bad error
	tcp.SetAckRecvHook(func(c *tcp.Conn) {
		acks++
		if err := c.CheckScoreboard(); err != nil && bad == nil {
			bad = err
		}
	})
	defer tcp.SetAckRecvHook(nil)
	sc := core.Scenario{RateMbps: 100, LossPct: 1, Device: device.Desktop,
		Page: web.Page{NumObjects: 1, ObjectSize: 8 << 20}}
	res := sc.RunPLT(core.TCP, core.CellSeed(4, "lossy_reorder", 8, 0))
	if bad != nil {
		t.Fatalf("after %d acks: %v", acks, bad)
	}
	if acks < 1000 {
		t.Fatalf("hook saw %d acks", acks)
	}
	if want := 16884754426 * time.Nanosecond; !res.Completed || res.PLT != want {
		t.Fatalf("PLT = %v (completed %v), want %v", res.PLT, res.Completed, want)
	}
}
