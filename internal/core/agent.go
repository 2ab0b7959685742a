package core

import (
	"repro/internal/transport"
)

// ActionToCwnd applies Eq. 3: a multiplicative cwnd update scaled by the
// action-control coefficient alpha.
func ActionToCwnd(cwnd, action, alpha float64) float64 {
	if action >= 0 {
		return cwnd * (1 + alpha*action)
	}
	return cwnd / (1 - alpha*action)
}

// Agent is Astraea's deployment-phase congestion controller: each MTP it
// assembles the local state, queries the policy (a *Service routes the
// query through the shared inference service), and enforces the Eq. 3
// window update with cwnd/sRTT pacing. Global information is used only
// during training, never here (§3.1, Evaluation).
type Agent struct {
	Cfg    Config
	policy Policy

	states *StateBlock

	// Startup mirrors kernel slow start: the window doubles per RTT until
	// the first queueing or loss signal, after which the policy takes over.
	// Without it a new flow would be limited to (1+alpha) growth per MTP
	// from the initial window, contradicting the sub-second convergence the
	// paper measures (Fig. 12).
	inStartup bool

	// Drain scheduling: every DrainPeriod MTPs the agent spends DrainLen
	// MTPs shrinking its window by DrainFactor per MTP, then restores it.
	// This periodically empties the bottleneck queue so every competing
	// flow re-observes the true base RTT — without it, a late-arriving
	// flow's minRTT permanently includes the incumbents' standing queue,
	// biasing delay-targeting control and capping achievable fairness (the
	// same reason BBR runs PROBE_RTT and Copa drains once per 5 RTT). It is
	// a deployment-side mechanism like pacing, independent of which policy
	// (reference or neural) is loaded.
	DrainPeriod  int
	DrainLen     int
	DrainFactor  float64
	mtpCount     int
	drainOffset  int
	preDrainCwnd float64

	// OnDecision, when set, runs at the end of every MTP, after the agent
	// has acted, with the MTP's statistics, the stacked state the policy
	// saw and the clamped action the policy returned. State is nil, and the
	// action 0, while the agent is in startup and the policy is not asked.
	// State is a fresh slice each MTP, so the hook may keep it. The
	// training environment builds its transitions here.
	OnDecision func(f *transport.Flow, st transport.MTPStats, state []float64, action float64)
}

// NewAgent builds an agent around policy (nil selects the reference
// policy). The drain offset that staggers drain windows across flows is
// derived from the flow ID at Init time — never from process-global state,
// which would race under concurrent scenarios and make results depend on
// how many agents were created earlier in the process.
func NewAgent(cfg Config, policy Policy) *Agent {
	if policy == nil {
		policy = NewReferencePolicy(cfg)
	}
	return &Agent{
		Cfg: cfg, policy: policy, states: NewStateBlock(cfg), inStartup: true,
		DrainPeriod: 64, DrainLen: 3, DrainFactor: 0.85,
		drainOffset: -1,
	}
}

// Name implements transport.CongestionControl.
func (a *Agent) Name() string { return "astraea" }

// Init implements transport.CongestionControl.
func (a *Agent) Init(f *transport.Flow) {
	if a.drainOffset < 0 {
		// Stagger drain windows across flows deterministically: derive the
		// offset from the flow ID so it is a pure function of the scenario.
		// The +1 keeps flow 0 from landing on offset 0, which would open a
		// drain window during its first MTPs — mid-slow-start, with no
		// window worth restoring.
		id := f.ID
		if id < 0 {
			id = -id
		}
		a.drainOffset = ((id + 1) * 17) % 64
	}
	f.ScheduleMTP(a.Cfg.MTP)
}

// OnAck implements transport.CongestionControl: slow-start growth happens
// per ack while in startup.
func (a *Agent) OnAck(f *transport.Flow, e transport.AckEvent) {
	if a.inStartup {
		f.SetCwnd(f.Cwnd() + 1)
	}
}

// OnLoss implements transport.CongestionControl: any loss ends startup.
func (a *Agent) OnLoss(f *transport.Flow, e transport.LossEvent) {
	if a.inStartup {
		a.inStartup = false
		f.SetCwnd(f.Cwnd() / 2)
	}
}

// OnMTP implements transport.CongestionControl: the control decision.
func (a *Agent) OnMTP(f *transport.Flow, st transport.MTPStats) {
	ls := localStateFromMTP(a.Cfg, st)
	a.states.Push(ls)

	// Exit startup on the first sign of queueing.
	if a.inStartup && ls.LatRatio > 1.15 {
		a.inStartup = false
	}

	var state []float64
	var action float64
	if !a.inStartup {
		a.mtpCount++
		state = a.states.Input()
		action = min(max(a.policy.Action(state), -1), 1)

		phase := -1
		if a.DrainPeriod > 0 {
			phase = (a.mtpCount + a.drainOffset) % a.DrainPeriod
		}
		switch {
		case phase >= 0 && phase < a.DrainLen:
			// Drain window: shrink decisively so the bottleneck queue can
			// empty; remember the window to restore afterwards.
			if phase == 0 {
				a.preDrainCwnd = f.Cwnd()
			}
			f.SetCwnd(f.Cwnd() * a.DrainFactor)
		case phase == a.DrainLen && a.preDrainCwnd > 0:
			// Restore to slightly below the pre-drain window and resume
			// policy control from there.
			f.SetCwnd(a.preDrainCwnd * 0.97)
			a.preDrainCwnd = 0
		default:
			f.SetCwnd(ActionToCwnd(f.Cwnd(), action, a.Cfg.Alpha))
		}
	}

	// Pacing at cwnd/sRTT (§3.3), capped at a multiple of the best
	// observed delivery rate: a runaway window must not translate into an
	// arbitrarily fast packet clock (the same guard BBR's pacing gain
	// provides), which matters during exploration-heavy training.
	if srtt := f.SRTT(); srtt > 0 {
		pacing := 1.1 * f.Cwnd() * transport.MSS * 8 / srtt
		if maxT := f.MaxTputBps(); maxT > 0 && pacing > 8*maxT {
			pacing = 8 * maxT
		}
		f.SetPacingBps(pacing)
	}
	if a.OnDecision != nil {
		a.OnDecision(f, st, state, action)
	}
	f.ScheduleMTP(a.Cfg.MTP)
}
