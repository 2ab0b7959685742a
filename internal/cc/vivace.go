package cc

import (
	"math"

	"repro/internal/transport"
)

// VivaceConfig exposes the knobs the paper's §2 tuning experiment turns.
type VivaceConfig struct {
	// Theta0 is the initial conversion factor from utility gradient to rate
	// step (Mbps per utility-gradient unit). The paper's §2 experiment
	// enlarges it to make Vivace responsive — and unstable on short RTTs.
	Theta0 float64
	// Epsilon is the relative probe amplitude (rate*(1±epsilon)).
	Epsilon float64
	// LatencyCoeff (b) and LossCoeff (c) weight the utility terms of Eq. 2:
	// u = x^0.9 - b*x*dRTT/dT - c*x*L, with x in Mbps.
	LatencyCoeff float64
	LossCoeff    float64
	// InitialRateBps seeds the sending rate.
	InitialRateBps float64
}

// DefaultVivaceConfig returns the PCC-Vivace defaults used in the paper.
func DefaultVivaceConfig() VivaceConfig {
	return VivaceConfig{
		Theta0:         0.05,
		Epsilon:        0.05,
		LatencyCoeff:   900,
		LossCoeff:      11.25,
		InitialRateBps: 2e6,
	}
}

// Vivace implements PCC-Vivace's online gradient-ascent rate control. It
// runs paired monitor intervals (MIs) of about one RTT at rates r(1+eps)
// and r(1-eps), computes the utility gradient of Eq. 2 from the two
// observed utilities, and steps the rate by theta*gradient, with theta
// escalating on consistently-signed gradients and rate changes bounded by a
// dynamic change limit (omega). Because every decision costs two MIs ≈ two
// RTTs of probing, convergence is intrinsically slow on long-RTT paths
// (Fig. 1b), and a large Theta0 destabilizes it on short-RTT paths
// (Fig. 2b).
//
// MI accounting: ACK-carried statistics observed during MI k describe
// packets sent during MI k-1, so utilities are attributed one MI back, and
// x in the utility is the probe's sending rate (as in PCC's definition).
type Vivace struct {
	cfg VivaceConfig

	rateBps float64

	// Probe bookkeeping. At the OnMTP ending MI k, the ACK-derived stats
	// describe packets sent during MI k-1, so we remember two MIs of
	// (direction, rate): cur* is MI k (just ended), prev* is MI k-1 (what
	// the stats describe).
	curDir       int // +1 up, -1 down, 0 before first MI
	curRateMbps  float64
	prevDir      int
	prevRateMbps float64

	uUp, uDown       float64
	haveUp, haveDown bool
	lastAvgRTT       float64

	theta     float64
	consSign  int
	consCount int
	omega     float64 // max relative rate change

	lastSRTT float64
}

// NewVivace builds a Vivace controller.
func NewVivace(cfg VivaceConfig) *Vivace {
	return &Vivace{cfg: cfg, rateBps: cfg.InitialRateBps, theta: cfg.Theta0, omega: 0.05}
}

// Name implements transport.CongestionControl.
func (v *Vivace) Name() string { return "vivace" }

// Init implements transport.CongestionControl.
func (v *Vivace) Init(f *transport.Flow) {
	v.curDir = 1
	v.curRateMbps = v.rateBps * (1 + v.cfg.Epsilon) / 1e6
	f.SetPacingBps(v.rateBps * (1 + v.cfg.Epsilon))
	f.SetCwnd(1e9) // rate-controlled: the window never binds
	f.ScheduleMTP(0.05)
}

// OnAck implements transport.CongestionControl.
func (v *Vivace) OnAck(f *transport.Flow, e transport.AckEvent) {
	v.lastSRTT = e.SRTT
}

// OnLoss implements transport.CongestionControl; loss enters the utility
// through the MI statistics rather than as an immediate signal.
func (v *Vivace) OnLoss(f *transport.Flow, e transport.LossEvent) {}

// OnMTP implements transport.CongestionControl: each MTP is one monitor
// interval.
func (v *Vivace) OnMTP(f *transport.Flow, st transport.MTPStats) {
	// Attribute this MI's observed stats to the previous MI's probe.
	if v.prevDir != 0 {
		dRTT := 0.0
		if v.lastAvgRTT > 0 && st.AvgRTT > 0 && st.Duration > 0 {
			dRTT = (st.AvgRTT - v.lastAvgRTT) / st.Duration
		}
		if dRTT < 0 {
			dRTT = 0 // Vivace penalizes only latency increase
		}
		x := v.prevRateMbps
		u := math.Pow(math.Max(x, 1e-6), 0.9) -
			v.cfg.LatencyCoeff*x*dRTT -
			v.cfg.LossCoeff*x*st.LossRate
		if v.prevDir > 0 {
			v.uUp, v.haveUp = u, true
		} else {
			v.uDown, v.haveDown = u, true
		}
		if v.haveUp && v.haveDown {
			v.decide()
			v.haveUp, v.haveDown = false, false
		}
	}
	if st.AvgRTT > 0 {
		v.lastAvgRTT = st.AvgRTT
	}

	// Shift the history: the MI that just ended becomes the one the next
	// batch of stats will describe.
	v.prevDir, v.prevRateMbps = v.curDir, v.curRateMbps

	// Configure the next MI's probe with the alternated direction.
	nextDir := -v.curDir
	if nextDir == 0 {
		nextDir = 1
	}
	probeRate := v.rateBps * (1 + float64(nextDir)*v.cfg.Epsilon)
	v.curDir, v.curRateMbps = nextDir, probeRate/1e6
	f.SetPacingBps(probeRate)

	mi := v.lastSRTT
	if mi <= 0 {
		mi = 0.05
	}
	f.ScheduleMTP(mi)
}

// decide computes the gradient from the paired MIs and steps the rate.
func (v *Vivace) decide() {
	rMbps := v.rateBps / 1e6
	grad := (v.uUp - v.uDown) / (2 * v.cfg.Epsilon * math.Max(rMbps, 1e-6))
	sign := 0
	if grad > 0 {
		sign = 1
	} else if grad < 0 {
		sign = -1
	}
	if sign != 0 && sign == v.consSign {
		v.consCount++
		v.theta = v.cfg.Theta0 * float64(1+v.consCount) // confidence amplification
	} else {
		v.consSign = sign
		v.consCount = 0
		v.theta = v.cfg.Theta0
	}
	stepMbps := v.theta * grad
	// Dynamic change boundary omega: cap relative change, escalating when
	// the cap binds repeatedly and decaying otherwise.
	maxStep := v.omega * math.Max(rMbps, 0.5)
	if math.Abs(stepMbps) > maxStep {
		v.omega += 0.05
		if v.omega > 0.5 {
			v.omega = 0.5
		}
		if stepMbps > 0 {
			stepMbps = maxStep
		} else {
			stepMbps = -maxStep
		}
	} else {
		v.omega = math.Max(0.05, v.omega-0.01)
	}
	newRate := (rMbps + stepMbps) * 1e6
	if newRate < 0.12e6 {
		newRate = 0.12e6
	}
	v.rateBps = newRate
}
