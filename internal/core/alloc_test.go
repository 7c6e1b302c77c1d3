package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"quiclab/internal/device"
	"quiclab/internal/web"
)

// TestPerPacketAllocSlope pins the send and receive paths of both
// transports as allocation-free per packet: a clean-path load of 8 MiB
// may allocate only a little more than one of 1 MiB, each on a fresh
// testbed, however many more packets it moves. What a cell allocates once
// (testbed, connections, rings grown by doubling) cancels out of the
// difference; anything allocated per packet shows up as its slope. The
// garbage collector is off, so the pools keep what they hold from one
// load to the next as they do between collections, and each load's
// simulation is drained after it is measured, so the packets still in
// flight when its page completed go back to the pools instead of being
// abandoned with the testbed.
func TestPerPacketAllocSlope(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops what is put back")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	load := func(proto Proto, size int) (allocs, packets uint64) {
		sc := Scenario{RateMbps: 100, Page: web.Page{NumObjects: 1, ObjectSize: size}, Device: device.Desktop}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := sc.RunPLT(proto, 1)
		runtime.ReadMemStats(&after)
		if !res.Completed {
			t.Fatalf("%s %d B load did not complete: %v", proto, size, res.FailureReason)
		}
		for _, l := range append(res.tb.down, res.tb.up...) {
			packets += uint64(l.Stats().Sent)
		}
		for horizon := res.sim.Now() + 5*time.Minute; res.sim.Pending() > 0 && res.sim.Now() < horizon; {
			res.sim.RunUntil(horizon)
		}
		return after.Mallocs - before.Mallocs, packets
	}
	for _, proto := range []Proto{QUIC, TCP} {
		load(proto, 8<<20) // fill the pools to the larger load's flight
		smallAllocs, smallPkts := load(proto, 1<<20)
		largeAllocs, largePkts := load(proto, 8<<20)
		slope := (float64(largeAllocs) - float64(smallAllocs)) / float64(largePkts-smallPkts)
		t.Logf("%s: 1 MiB %d allocs over %d packets, 8 MiB %d over %d: %.4f per extra packet",
			proto, smallAllocs, smallPkts, largeAllocs, largePkts, slope)
		if slope >= 0.05 {
			t.Errorf("%s allocates %.3f per extra packet (1 MiB: %d allocs, %d packets; 8 MiB: %d, %d), want < 0.05",
				proto, slope, smallAllocs, smallPkts, largeAllocs, largePkts)
		}
	}
}
