//go:build !race

// The race detector makes sync.Pool drop recycled packets at random, so
// this pin only holds without it.

package repro

import "testing"

// TestFlowSecondAllocFree pins the per-packet path — event loop, delay
// lines, link queue, transport, Cubic — at zero heap allocations per
// steady-state simulated second.
func TestFlowSecondAllocFree(t *testing.T) {
	s := warmCubicFlow()
	if n := testing.AllocsPerRun(3, func() { s.Run(s.Now() + 1) }); n != 0 {
		t.Fatalf("a warmed Cubic flow-second allocated %.0f objects, want 0", n)
	}
}
