package cc

import (
	"repro/internal/transport"
)

// AuroraPolicy maps Aurora's observation vector to an action in (-1,1).
// The observation follows the Aurora paper: a history of (send ratio,
// latency ratio, latency gradient) triples.
type AuroraPolicy interface {
	Act(obs []float64) float64
}

// Aurora reproduces the single-agent RL controller of Jay et al. (ICML'19).
// It is rate-based: every monitor interval the policy emits an action a that
// scales the sending rate multiplicatively (the same mapping as Eq. 3 but on
// rate). Its reward (Eq. 1: 10*thr - 1000*lat - 2000*loss) makes the learned
// policy throughput-dominant: it keeps pushing rate until loss is heavy and
// is largely insensitive to queueing delay and to competing flows — the
// behaviour Figs. 1a, 14 and 19 document. The default policy here is a
// distilled deterministic rendering of that learned behaviour; a trained
// neural policy can be substituted through the AuroraPolicy interface.
type Aurora struct {
	policy  AuroraPolicy
	rateBps float64
	alpha   float64 // action-to-rate coefficient

	history []auroraObs
}

type auroraObs struct {
	sendRatio float64
	latRatio  float64
	latGrad   float64
}

// NewAurora builds an Aurora controller; a nil policy selects the distilled
// default.
func NewAurora(p AuroraPolicy) *Aurora {
	if p == nil {
		p = distilledAurora{}
	}
	return &Aurora{policy: p, rateBps: 4e6, alpha: 0.025}
}

// distilledAurora encodes the learned policy's closed-loop behaviour:
// maximize throughput, back off only under significant loss, shrug at
// latency (its latency penalty is dominated by the throughput term in the
// regimes the reward was trained on).
type distilledAurora struct{}

// Act implements AuroraPolicy. obs is the most recent (sendRatio, latRatio,
// latGrad) triple repeated over history; only the head matters here.
func (distilledAurora) Act(obs []float64) float64 {
	if len(obs) < 3 {
		return 1
	}
	sendRatio, _, latGrad := obs[0], obs[1], obs[2]
	// sendRatio = sent/delivered; > ~1.05 means ~5% loss.
	lossFrac := 0.0
	if sendRatio > 1 {
		lossFrac = 1 - 1/sendRatio
	}
	switch {
	case lossFrac > 0.12:
		return -1
	case lossFrac > 0.05:
		return -0.3
	case latGrad > 2.0: // extreme latency blowup finally registers
		return -0.05
	default:
		return 1 // full throttle
	}
}

// Name implements transport.CongestionControl.
func (a *Aurora) Name() string { return "aurora" }

// Init implements transport.CongestionControl.
func (a *Aurora) Init(f *transport.Flow) {
	f.SetPacingBps(a.rateBps)
	f.SetCwnd(1e9)
	f.ScheduleMTP(0.05)
}

// OnAck implements transport.CongestionControl.
func (a *Aurora) OnAck(f *transport.Flow, e transport.AckEvent) {}

// OnLoss implements transport.CongestionControl.
func (a *Aurora) OnLoss(f *transport.Flow, e transport.LossEvent) {}

// OnMTP implements transport.CongestionControl.
func (a *Aurora) OnMTP(f *transport.Flow, st transport.MTPStats) {
	sendRatio := 1.0
	if st.ThroughputBps > 0 {
		sendRatio = st.SendRateBps / st.ThroughputBps
	} else if st.SendRateBps > 0 {
		sendRatio = 10
	}
	latRatio := 1.0
	if st.MinRTT > 0 && st.AvgRTT > 0 {
		latRatio = st.AvgRTT / st.MinRTT
	}
	latGrad := 0.0
	if n := len(a.history); n > 0 && st.MinRTT > 0 {
		latGrad = (latRatio - a.history[n-1].latRatio)
	}
	a.history = append(a.history, auroraObs{sendRatio, latRatio, latGrad})
	if len(a.history) > 10 {
		a.history = a.history[1:]
	}

	obs := make([]float64, 0, 30)
	for i := len(a.history) - 1; i >= 0; i-- {
		h := a.history[i]
		obs = append(obs, h.sendRatio, h.latRatio, h.latGrad)
	}
	act := clamp(a.policy.Act(obs), -1, 1)
	if act >= 0 {
		a.rateBps *= 1 + 10*a.alpha*act
	} else {
		a.rateBps /= 1 - 10*a.alpha*act
	}
	if a.rateBps < 0.3e6 {
		a.rateBps = 0.3e6
	}
	f.SetPacingBps(a.rateBps)
	mi := f.SRTT()
	if mi <= 0 {
		mi = 0.05
	}
	f.ScheduleMTP(mi / 2)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
