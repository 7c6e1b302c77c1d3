// Statemachine: the paper's core methodology contribution — infer a
// protocol state machine from instrumented execution traces (Fig 3) and
// use time-in-state to explain a performance difference (Fig 13: why
// QUIC slows down on a weak phone).
//
//	go run ./examples/statemachine
package main

import (
	"fmt"

	"quiclab/internal/core"
	"quiclab/internal/device"
	"quiclab/internal/statemachine"
	"quiclab/internal/web"
)

func main() {
	// Run the same 20MB download at 50 Mbps against a desktop client and
	// a MotoG, collecting the server's congestion-control trace.
	for _, dev := range []device.Profile{device.Desktop, device.MotoG} {
		sc := core.Scenario{
			Seed:     1,
			RateMbps: 50,
			Page:     web.Page{NumObjects: 1, ObjectSize: 20 << 20},
			Device:   dev,
		}
		res := sc.RunPLT(core.QUIC, 1)
		tr := statemachine.FromRecorder(res.ServerTrace, res.EndTime)
		model := statemachine.Infer([]statemachine.Trace{tr})
		fmt.Printf("=== %s client (PLT %v) ===\n", dev.Name, res.PLT.Round(1e6))
		fmt.Print(model.String())

		// Synoptic-style temporal invariants over the visited states.
		paths := [][]string{tr.Path()}
		ivs := statemachine.MineInvariants(paths)
		fmt.Printf("invariants mined: %d, e.g.:\n", len(ivs))
		for i, iv := range ivs {
			if i == 3 {
				break
			}
			fmt.Printf("  %s\n", iv)
		}
		fmt.Println()
	}
	fmt.Println("Note how the MotoG run is dominated by ApplicationLimited: the")
	fmt.Println("phone's userspace packet processing cannot drain 50 Mbps, its")
	fmt.Println("flow-control window stalls the sender, and QUIC's desktop-class")
	fmt.Println("advantage evaporates — the paper's Fig 13 root cause.")
}
