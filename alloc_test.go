//go:build !race

// The race detector makes sync.Pool drop recycled packets at random, so
// this pin only holds without it.

package repro

import (
	"math"
	"testing"

	"repro/internal/transport"
)

// TestFlowSecondAllocFree pins the per-packet path — event loop, delay
// lines, link queue, transport, Cubic — at zero heap allocations per
// steady-state simulated second.
func TestFlowSecondAllocFree(t *testing.T) {
	s := warmCubicFlow()
	if n := testing.AllocsPerRun(3, func() { s.Run(s.Now() + 1) }); n != 0 {
		t.Fatalf("a warmed Cubic flow-second allocated %.0f objects, want 0", n)
	}
}

// TestObservedFlowSecondAllocFree is TestFlowSecondAllocFree with the two
// observers a checked runner scenario puts on every flow: a recorder that
// bins every ack into throughput and RTT series, and a checker that looks
// at every send, ack, cwnd change and loss. Observing a flow allocates
// nothing per event.
func TestObservedFlowSecondAllocFree(t *testing.T) {
	const interval, bins = 0.1, 1 << 10
	var tput, rtt [bins]float64
	var rttCount [bins]int
	minRTT := math.Inf(1)
	recorder := transport.FlowObserver{Ack: func(e transport.AckEvent) {
		if bin := int(e.Now / interval); bin < bins {
			tput[bin] += float64(e.Bytes) * 8 / interval
			rtt[bin] += e.RTT
			rttCount[bin]++
		}
		minRTT = min(minRTT, e.RTT)
	}}
	var marks, badRTT, badCwnd int
	checker := transport.FlowObserver{
		Send: func(float64, int) { marks++ },
		Ack: func(e transport.AckEvent) {
			if e.RTT < 0.030 {
				badRTT++
			}
			marks++
		},
		Cwnd: func(_, cwnd float64) {
			if cwnd < 1 {
				badCwnd++
			}
			marks++
		},
		Loss: func(transport.LossEvent) { marks++ },
	}
	s := warmCubicFlow(recorder, checker)
	if n := testing.AllocsPerRun(3, func() { s.Run(s.Now() + 1) }); n != 0 {
		t.Fatalf("an observed Cubic flow-second allocated %.0f objects, want 0", n)
	}
	if marks == 0 || rttCount[int(s.Now()/interval)-1] == 0 {
		t.Fatal("the observers saw no events")
	}
	if badRTT > 0 || badCwnd > 0 {
		t.Fatalf("%d RTT samples below propagation, %d windows below one segment", badRTT, badCwnd)
	}
}
