package netem

import (
	"repro/internal/sim"
)

// Path bundles the forward hops a flow's data packets traverse and the
// reverse hops its ACKs take back. The usual single-bottleneck scenario is
// forward = [extraDelay?, bottleneck], reverse = [delay(total return)].
type Path struct {
	Forward []Hop
	Reverse []Hop
}

// BaseRTT computes the zero-queue round-trip time of the path by summing
// static delays; links contribute propagation delay only (serialization of a
// single packet is counted separately by callers that care).
func (p *Path) BaseRTT() float64 {
	var rtt float64
	for _, hops := range [][]Hop{p.Forward, p.Reverse} {
		for _, h := range hops {
			switch v := h.(type) {
			case *Link:
				rtt += v.cfg.Delay
			case *DelayHop:
				rtt += v.Delay
			}
		}
	}
	return rtt
}

// DumbbellConfig describes the canonical single-bottleneck experiment
// topology: n senders share one bottleneck link; each flow may have extra
// one-way delay to emulate heterogeneous RTTs.
type DumbbellConfig struct {
	RateBps    float64
	BaseRTT    float64 // total two-way propagation when ExtraDelay is zero
	QueueBytes int
	LossProb   float64
	Discipline QueueDiscipline // nil = droptail
}

// Dumbbell is the shared-bottleneck topology used by most experiments.
type Dumbbell struct {
	Sim        *sim.Simulator
	Bottleneck *Link
	cfg        DumbbellConfig
}

// NewDumbbell creates the topology. The bottleneck link carries half of
// BaseRTT as forward propagation; the reverse direction is a pure delay hop
// with the other half (ACKs are small and assumed uncongested, as in the
// paper's tunnel setup).
func NewDumbbell(s *sim.Simulator, cfg DumbbellConfig) *Dumbbell {
	link := NewLink(s, "bottleneck", LinkConfig{
		RateBps:    cfg.RateBps,
		Delay:      cfg.BaseRTT / 2,
		QueueBytes: cfg.QueueBytes,
		LossProb:   cfg.LossProb,
		Discipline: cfg.Discipline,
	})
	return &Dumbbell{Sim: s, Bottleneck: link, cfg: cfg}
}

// FlowPath returns the path for one flow whose base RTT is cfg.BaseRTT +
// extraDelay: the extra delay is a DelayHop on the forward side only, ahead
// of the shared bottleneck. The reverse side is a DelayHop of its own
// carrying the other half of cfg.BaseRTT.
func (d *Dumbbell) FlowPath(extraDelay float64) *Path {
	fwd := []Hop{}
	if extraDelay > 0 {
		fwd = append(fwd, &DelayHop{Sim: d.Sim, Delay: extraDelay})
	}
	fwd = append(fwd, d.Bottleneck)
	rev := []Hop{&DelayHop{Sim: d.Sim, Delay: d.cfg.BaseRTT / 2}}
	return &Path{Forward: fwd, Reverse: rev}
}

// BDPBytes returns the bandwidth-delay product of the dumbbell for a given
// RTT in seconds.
func BDPBytes(rateBps, rtt float64) int {
	return int(rateBps / 8 * rtt)
}

// MultiBottleneck reproduces the Fig. 11a topology: flow set 1 traverses
// only Link1; flow set 2 traverses Link1 then Link2.
type MultiBottleneck struct {
	Sim   *sim.Simulator
	Link1 *Link
	Link2 *Link
	rtt   float64
}

// NewMultiBottleneck builds the two-link topology with the paper's
// parameters structure: both links share the same base RTT contribution.
func NewMultiBottleneck(s *sim.Simulator, rate1, rate2, baseRTT float64, q1, q2 int) *MultiBottleneck {
	return &MultiBottleneck{
		Sim:   s,
		Link1: NewLink(s, "link1", LinkConfig{RateBps: rate1, Delay: baseRTT / 2, QueueBytes: q1}),
		Link2: NewLink(s, "link2", LinkConfig{RateBps: rate2, Delay: 0, QueueBytes: q2}),
		rtt:   baseRTT,
	}
}

// PathSet1 is the path for flows crossing only Link1.
func (m *MultiBottleneck) PathSet1() *Path {
	return &Path{
		Forward: []Hop{m.Link1},
		Reverse: []Hop{&DelayHop{Sim: m.Sim, Delay: m.rtt / 2}},
	}
}

// PathSet2 is the path for flows crossing Link1 then Link2.
func (m *MultiBottleneck) PathSet2() *Path {
	return &Path{
		Forward: []Hop{m.Link1, m.Link2},
		Reverse: []Hop{&DelayHop{Sim: m.Sim, Delay: m.rtt / 2}},
	}
}
