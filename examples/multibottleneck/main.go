// Multibottleneck: the Fig. 11 topology — flow set 1 crosses only Link1
// (100 Mbps); flow set 2 crosses Link1 then Link2 (20 Mbps). With few FS-1
// flows the sets have different bottlenecks and the allocation should be
// max-min; with many FS-1 flows Link1 becomes the common bottleneck and
// everyone converges to an equal share.
//
//	go run ./examples/multibottleneck
package main

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/transport"
)

func main() {
	for _, n1 := range []int{4, 12} {
		const n2 = 2
		const dur = 60.0
		s := sim.New(11)
		mb := netem.NewMultiBottleneck(s, 100e6, 20e6, 0.030,
			netem.BDPBytes(100e6, 0.030)*2, netem.BDPBytes(20e6, 0.030)*2)

		bytes := make([]int64, n1+n2)
		launch := func(id int, path *netem.Path) {
			f := transport.NewFlow(s, transport.FlowConfig{
				ID: id, Path: path, CC: cc.MustNew("astraea"),
			})
			f.Observe(transport.FlowObserver{Ack: func(e transport.AckEvent) {
				if e.Now > dur/2 {
					bytes[id] += int64(e.Bytes)
				}
			}})
			f.Start()
		}
		for i := 0; i < n1; i++ {
			launch(i, mb.PathSet1())
		}
		for i := 0; i < n2; i++ {
			launch(n1+i, mb.PathSet2())
		}
		s.Run(dur)

		mbpsOf := func(b int64) float64 { return float64(b) * 8 / (dur / 2) / 1e6 }
		var fs1, fs2 float64
		for i := 0; i < n1; i++ {
			fs1 += mbpsOf(bytes[i])
		}
		for i := 0; i < n2; i++ {
			fs2 += mbpsOf(bytes[n1+i])
		}
		fmt.Printf("FS-1 = %d flows over Link1 only; FS-2 = %d flows over Link1+Link2\n", n1, n2)
		fmt.Printf("  FS-1 per-flow: %.1f Mbps   FS-2 per-flow: %.1f Mbps\n", fs1/float64(n1), fs2/float64(n2))
		if 100.0/float64(n1+n2) > 10 {
			fmt.Printf("  ideal (max-min): FS-1 %.1f, FS-2 10.0 (Link2-bound)\n\n", 80.0/float64(n1))
		} else {
			fmt.Printf("  ideal (shared Link1): %.1f each\n\n", 100.0/float64(n1+n2))
		}
	}
}
