package cc

import (
	"math"

	"repro/internal/transport"
)

// OrcaPolicy maps Orca's observation vector to an action in [-1, 1]; the
// overlay scales the underlying TCP window by 2^a.
type OrcaPolicy interface {
	Act(obs []float64) float64
}

// Orca couples classical TCP (Cubic underneath, per the paper's default)
// with an RL overlay that periodically rescales the kernel's cwnd by 2^a.
// The overlay smooths Cubic's sawtooth and drains queues, but — as the
// paper argues — its suppression of loss events can undermine AIMD's
// fairness guarantee, producing the unstable convergence of Fig. 6. The
// default policy is a distilled rendering of the learned overlay; a trained
// neural policy can be substituted through OrcaPolicy.
type Orca struct {
	under  *Cubic
	policy OrcaPolicy
	mtp    float64
}

// NewOrca builds an Orca controller over a fresh Cubic instance; nil policy
// selects the distilled default.
func NewOrca(p OrcaPolicy) *Orca {
	if p == nil {
		p = distilledOrca{}
	}
	return &Orca{under: NewCubic(), policy: p, mtp: 0.02}
}

// distilledOrca captures the learned overlay's closed-loop behaviour:
// push when the link is underused, back off when queueing grows, otherwise
// leave Cubic alone.
type distilledOrca struct{}

// Act implements OrcaPolicy; obs = [utilization, latencyRatio, lossRate].
func (distilledOrca) Act(obs []float64) float64 {
	util, latRatio, loss := obs[0], obs[1], obs[2]
	switch {
	case loss > 0.05:
		return -0.4
	case latRatio > 1.8:
		return -0.5 * math.Min(1, (latRatio-1.8)/2)
	case util < 0.85 && latRatio < 1.2:
		return 0.35
	default:
		return 0
	}
}

// Name implements transport.CongestionControl.
func (o *Orca) Name() string { return "orca" }

// Init implements transport.CongestionControl.
func (o *Orca) Init(f *transport.Flow) {
	o.under.Init(f)
	f.ScheduleMTP(o.mtp)
}

// OnAck implements transport.CongestionControl: the underlying Cubic owns
// per-ack growth.
func (o *Orca) OnAck(f *transport.Flow, e transport.AckEvent) { o.under.OnAck(f, e) }

// OnLoss implements transport.CongestionControl.
func (o *Orca) OnLoss(f *transport.Flow, e transport.LossEvent) { o.under.OnLoss(f, e) }

// OnMTP implements transport.CongestionControl: the RL overlay fires here.
func (o *Orca) OnMTP(f *transport.Flow, st transport.MTPStats) {
	util := 0.0
	if st.MaxTputBps > 0 {
		util = st.ThroughputBps / st.MaxTputBps
	}
	latRatio := 1.0
	if st.MinRTT > 0 && st.AvgRTT > 0 {
		latRatio = st.AvgRTT / st.MinRTT
	}
	a := clamp(o.policy.Act([]float64{util, latRatio, st.LossRate}), -1, 1)
	if a != 0 {
		f.SetCwnd(f.Cwnd() * math.Pow(2, a*o.mtpGain()))
	}
	f.ScheduleMTP(o.mtp)
}

// mtpGain scales the per-interval multiplier so that a sustained a = ±1
// roughly doubles/halves the window per RTT-scale horizon rather than per
// 20 ms tick.
func (o *Orca) mtpGain() float64 { return 0.25 }
