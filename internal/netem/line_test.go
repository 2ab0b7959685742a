package netem

import (
	"testing"

	"repro/internal/sim"
)

// afterHop is a delay hop scheduled one event per packet, the way DelayHop
// worked before it moved onto a delay line.
type afterHop struct {
	s *sim.Simulator
	d float64
}

func (h *afterHop) Send(p *Packet) { h.s.After(h.d, p.advance) }

// TestLineDelayHopMatchesAfter: paths through DelayHops (and a link whose
// propagation is a line too) must deliver every packet at the same time, in
// the same order and with the same number of dispatched events as the same
// paths with one sim.After per packet per delay hop. Packets are sent in
// bursts at shared instants and re-sent from delivery callbacks, so ties
// across hops are common.
func TestLineDelayHopMatchesAfter(t *testing.T) {
	type delivery struct {
		at  float64
		seq int64
	}
	run := func(lines bool) ([]delivery, uint64) {
		s := sim.New(1)
		hop := func(d float64) Hop {
			if lines {
				return &DelayHop{Sim: s, Delay: d}
			}
			return &afterHop{s, d}
		}
		link := NewLink(s, "l", LinkConfig{RateBps: 96e6, Delay: 2.0 / 64, QueueBytes: 1 << 20})
		paths := [][]Hop{
			{hop(0), link},
			{hop(1.0 / 64), link},
			{hop(3.0 / 64)},
			{link, hop(1.0 / 64)},
		}
		var trace []delivery
		var send func(seq int64)
		deliver := func(p *Packet) {
			trace = append(trace, delivery{s.Now(), p.Seq})
			if p.Seq < 3000 {
				send(p.Seq + 1000)
			}
		}
		send = func(seq int64) {
			p := AcquirePacket()
			p.Seq, p.Size = seq, 1500
			SendOver(p, paths[seq%int64(len(paths))], deliver, nil)
		}
		for i := int64(0); i < 1000; i++ {
			s.At(float64(i%16)/64, func() { send(i) })
		}
		s.Run(100)
		return trace, s.Processed
	}
	got, gotN := run(true)
	want, wantN := run(false)
	if len(got) != 4000 || len(want) != 4000 || gotN != wantN {
		t.Fatalf("delivered %d vs %d packets in %d vs %d events", len(got), len(want), gotN, wantN)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delivery %d is %+v through delay lines, %+v with one event per packet", i, got[i], want[i])
		}
	}
}
