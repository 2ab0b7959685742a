package netem

import (
	"testing"

	"repro/internal/sim"
)

// TestPacketPoolRecyclesUnderBurst audits the pool under a fan-in burst:
// hundreds of packets dumped into one link at once must come back to the
// pool as they drain, so a second identical burst in the same process
// needs (almost) no new heap packets. The pre-fix queue kept dead *Packet
// pointers reachable in abandoned backing arrays, which made recycling
// ineffective exactly under burst load.
func TestPacketPoolRecyclesUnderBurst(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled packets")
	}
	burst := func() {
		s := sim.New(9)
		l := NewLink(s, "agg", LinkConfig{RateBps: 1e9, Delay: 0.0001, QueueBytes: 1 << 30})
		hops := []Hop{l}
		for i := 0; i < 800; i++ {
			p := AcquirePacket()
			p.Size = 1500
			SendOver(p, hops, func(*Packet) {}, nil)
		}
		s.Run(1)
	}

	burst() // warm: populates the pool with up to 800 recycled packets
	before := PacketPoolAllocs()
	burst() // identical burst: should be served from the pool
	fresh := PacketPoolAllocs() - before

	// A GC between the bursts may legally shrink the pool, so demand "mostly
	// recycled" rather than zero: under a tenth of the burst size.
	if fresh > 80 {
		t.Fatalf("second burst heap-allocated %d of 800 packets — pool recycling is broken under bursts", fresh)
	}
}
