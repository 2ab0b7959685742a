package cc

import (
	"math"

	"repro/internal/transport"
)

// BBR implements a faithful-in-shape BBRv1: STARTUP with 2/ln2 gain, DRAIN,
// an 8-phase PROBE_BW pacing-gain cycle, PROBE_RTT every 10 s, a windowed
// max filter for bottleneck bandwidth and a windowed min filter for RTT. It
// reproduces BBR's characteristic behaviours the paper measures: high
// utilization, ~1.25x probing overshoot, standing queues of up to ~1 BDP in
// deep buffers, and aggressiveness against loss-based flows.
type BBR struct {
	state      int // 0 startup, 1 drain, 2 probe_bw, 3 probe_rtt
	pacingGain float64
	cwndGain   float64

	btlBw        maxFilter
	rtProp       float64
	rtPropStamp  float64
	probeRTTDone float64
	cycleIdx     int
	cycleStamp   float64

	fullBw      float64
	fullBwCount int
	priorCwnd   float64
}

var bbrCycleGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// blindStartupCwndCap bounds cwnd growth while the bandwidth filter is
// empty (no delivery feedback at all). 512 packets covers the largest
// startup BDP the emulated paths present (hundreds of Mbps × hundreds of
// ms would still be bootstrapped within a few feedback RTTs) while keeping
// a black-holed flow's blind bursts finite.
const blindStartupCwndCap = 512

// NewBBR returns a BBR instance.
func NewBBR() *BBR {
	return &BBR{
		state:      0,
		pacingGain: 2.885, // 2/ln2
		cwndGain:   2.885,
		rtProp:     math.Inf(1),
	}
}

// maxFilter keeps the maximum over a sliding window of samples.
type maxFilter struct {
	samples []struct {
		t float64
		v float64
	}
	window float64
}

func (m *maxFilter) update(t, v, window float64) {
	m.window = window
	m.samples = append(m.samples, struct{ t, v float64 }{t, v})
	cut := 0
	for cut < len(m.samples) && m.samples[cut].t < t-window {
		cut++
	}
	m.samples = m.samples[cut:]
}

func (m *maxFilter) max() float64 {
	best := 0.0
	for _, s := range m.samples {
		if s.v > best {
			best = s.v
		}
	}
	return best
}

// Name implements transport.CongestionControl.
func (b *BBR) Name() string { return "bbr" }

// Init implements transport.CongestionControl.
func (b *BBR) Init(f *transport.Flow) {
	f.ScheduleMTP(0.010) // delivery-rate sampling interval
}

// OnAck implements transport.CongestionControl.
func (b *BBR) OnAck(f *transport.Flow, e transport.AckEvent) {
	now := e.Now
	if e.RTT < b.rtProp || now-b.rtPropStamp > 10 {
		b.rtProp = e.RTT
		b.rtPropStamp = now
	}
}

// OnLoss implements transport.CongestionControl. BBRv1 ignores loss as a
// congestion signal.
func (b *BBR) OnLoss(f *transport.Flow, e transport.LossEvent) {}

// OnMTP implements transport.CongestionControl: delivery-rate samples feed
// the bandwidth filter and drive the state machine.
func (b *BBR) OnMTP(f *transport.Flow, st transport.MTPStats) {
	now := st.End
	if st.DeliveredBytes > 0 {
		b.btlBw.update(now, st.ThroughputBps, 10*math.Max(b.rtProp, 0.01))
	}
	bw := b.btlBw.max()
	rt := b.rtProp
	if math.IsInf(rt, 0) || rt <= 0 {
		rt = 0.1
	}

	switch b.state {
	case 0: // STARTUP: exit when bandwidth stops growing for 3 rounds
		if bw > b.fullBw*1.25 {
			b.fullBw = bw
			b.fullBwCount = 0
		} else if st.DeliveredBytes > 0 {
			b.fullBwCount++
			if b.fullBwCount >= 3 {
				b.state = 1
				b.pacingGain = 1 / 2.885
				b.cwndGain = 2
			}
		}
	case 1: // DRAIN: until inflight <= BDP
		bdpPkts := bw / 8 * rt / transport.MSS
		if float64(st.InflightPkts) <= bdpPkts {
			b.enterProbeBW(now)
		}
	case 2: // PROBE_BW: rotate gain cycle each rtProp
		if now-b.cycleStamp > rt {
			b.cycleIdx = (b.cycleIdx + 1) % 8
			b.cycleStamp = now
			b.pacingGain = bbrCycleGains[b.cycleIdx]
		}
		if now-b.rtPropStamp > 10 {
			b.state = 3
			b.priorCwnd = f.Cwnd()
			b.probeRTTDone = now + 0.2
			b.pacingGain = 1
		}
	case 3: // PROBE_RTT: cwnd=4 for 200ms
		f.SetCwnd(4)
		if now > b.probeRTTDone {
			b.rtPropStamp = now
			f.SetCwnd(b.priorCwnd)
			b.enterProbeBW(now)
		}
	}

	if bw > 0 && b.state != 3 {
		pacing := b.pacingGain * bw
		f.SetPacingBps(pacing)
		bdpPkts := bw / 8 * rt / transport.MSS
		cwnd := b.cwndGain * bdpPkts
		if b.state == 2 {
			cwnd = 2 * bdpPkts
		}
		if cwnd < 4 {
			cwnd = 4
		}
		f.SetCwnd(cwnd)
	} else if bw == 0 {
		// No samples yet: keep exponential startup via cwnd growth, but only
		// up to a bootstrap ceiling. Blind growth exists to bridge the gap
		// before the first ack on long paths; without the ceiling, a flow
		// whose packets all drop (incast black hole: queue permanently full)
		// would double its window every MTP forever, emitting unbounded
		// blind bursts that scale superlinearly with competing flow count.
		if w := f.Cwnd() * 1.5; w < blindStartupCwndCap {
			f.SetCwnd(w)
		}
	}
	f.ScheduleMTP(math.Max(0.005, math.Min(rt/4, 0.05)))
}

func (b *BBR) enterProbeBW(now float64) {
	b.state = 2
	b.cycleIdx = 2
	b.cycleStamp = now
	b.pacingGain = 1
	b.cwndGain = 2
}
