package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/transport"
)

// constPolicy answers every state with v.
type constPolicy struct{ v float64 }

func (p constPolicy) Action([]float64) float64 { return p.v }

// runAgentOnLink runs cc as the only flow of a dumbbell and returns the
// flow and its result.
func runAgentOnLink(t *testing.T, cc transport.CongestionControl, rate, rtt float64, queueBytes int, dur float64) (*transport.Flow, *runner.FlowResult) {
	t.Helper()
	var flow *transport.Flow
	res := runner.MustRun(runner.Scenario{
		Seed: 1, RateBps: rate, BaseRTT: rtt, QueueBytes: queueBytes, Duration: dur,
		Flows:         []runner.FlowSpec{{CC: cc}},
		OnFlowCreated: func(_ int, f *transport.Flow) { flow = f },
	})
	return flow, res.Flows[0]
}

func TestAgentReachesCapacity(t *testing.T) {
	agent := core.NewAgent(core.DefaultConfig(), nil)
	_, fr := runAgentOnLink(t, agent, 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 15)
	rate := float64(fr.DeliveredBytes) * 8 / 15
	if rate < 40e6 {
		t.Fatalf("agent reached %.1f Mbps of 50", rate/1e6)
	}
}

func TestAgentStartupEndsOnQueueing(t *testing.T) {
	agent := core.NewAgent(core.DefaultConfig(), nil)
	if !core.InStartup(agent) {
		t.Fatal("agent should begin in startup")
	}
	runAgentOnLink(t, agent, 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 10)
	if core.InStartup(agent) {
		t.Fatal("startup never exited on a saturated link")
	}
}

// mtpCounter wraps an agent to count its MTPs and record the window each
// decision started from.
type mtpCounter struct {
	*core.Agent
	mtps   int
	before float64
}

func (c *mtpCounter) OnMTP(f *transport.Flow, st transport.MTPStats) {
	c.mtps++
	c.before = f.Cwnd()
	c.Agent.OnMTP(f, st)
}

// TestAgentOnDecision pins the hook's contract: it fires once on every
// MTP, after the agent has acted; state is nil exactly while the agent is
// in startup; the action is the policy's, clamped to [-1, 1]; and outside
// drain windows the window after the decision is Eq. 3 applied to the
// window before it.
func TestAgentOnDecision(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, c := range []struct {
		name   string
		policy core.Policy
		want   float64 // the action every decision must report; NaN = any in [-1, 1]
		drains bool
		// maxCwnd bounds the final window; zero = no bound.
		maxCwnd float64
	}{
		{name: "reference", want: math.NaN(), drains: true},
		{name: "reference-no-drain", want: math.NaN()},
		{name: "constant", policy: constPolicy{0.25}, want: 0.25, drains: true},
		{name: "clamped", policy: constPolicy{3}, want: 1},
		// Forced backoff must keep the window pinned near the floor.
		{name: "always-shrink", policy: constPolicy{-1}, want: -1, maxCwnd: 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			agent := core.NewAgent(cfg, c.policy)
			if !c.drains {
				agent.DrainPeriod = 0
			}
			w := &mtpCounter{Agent: agent}
			calls, decisions, drained, left := 0, 0, 0, false
			agent.OnDecision = func(f *transport.Flow, st transport.MTPStats, state []float64, action float64) {
				calls++
				if calls != w.mtps {
					t.Fatalf("hook call %d on MTP %d", calls, w.mtps)
				}
				if (state == nil) != core.InStartup(agent) {
					t.Fatalf("MTP %d: state nil = %v, in startup = %v", w.mtps, state == nil, core.InStartup(agent))
				}
				if state == nil {
					if left {
						t.Fatalf("MTP %d: startup again after leaving it", w.mtps)
					}
					if action != 0 {
						t.Fatalf("MTP %d: action %v in startup", w.mtps, action)
					}
					return
				}
				left = true
				decisions++
				if len(state) != cfg.StateDim() {
					t.Fatalf("state dim %d, want %d", len(state), cfg.StateDim())
				}
				if action < -1 || action > 1 || (!math.IsNaN(c.want) && action != c.want) {
					t.Fatalf("MTP %d: action %v, want %v", w.mtps, action, c.want)
				}
				if core.InDrain(agent) {
					drained++
					return
				}
				// The flow floors its window at 2 packets.
				if want := max(core.ActionToCwnd(w.before, action, cfg.Alpha), 2); f.Cwnd() != want {
					t.Fatalf("MTP %d: cwnd %v after action %v from %v, want %v", w.mtps, f.Cwnd(), action, w.before, want)
				}
			}
			f, _ := runAgentOnLink(t, w, 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 10)
			if w.mtps == 0 || calls != w.mtps {
				t.Fatalf("hook fired %d times over %d MTPs", calls, w.mtps)
			}
			if decisions == 0 {
				t.Fatal("the policy was never consulted")
			}
			if c.drains != (drained > 0) {
				t.Fatalf("%d decisions in drain windows, drains enabled = %v", drained, c.drains)
			}
			if c.maxCwnd > 0 && f.Cwnd() > c.maxCwnd {
				t.Fatalf("cwnd %v despite constant %v actions", f.Cwnd(), c.want)
			}
		})
	}
}

func TestAgentDrainWindowsReduceThenRestore(t *testing.T) {
	agent := core.NewAgent(core.DefaultConfig(), nil)
	agent.DrainPeriod = 10
	agent.DrainLen = 2

	var cwnds []float64
	agent.OnDecision = func(f *transport.Flow, _ transport.MTPStats, _ []float64, _ float64) {
		cwnds = append(cwnds, f.Cwnd())
	}
	runAgentOnLink(t, agent, 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 20)
	// Look for periodic dips: min cwnd in steady state clearly below the max.
	if len(cwnds) < 100 {
		t.Fatalf("only %d MTPs", len(cwnds))
	}
	tail := cwnds[len(cwnds)-60:]
	lo, hi := tail[0], tail[0]
	for _, w := range tail {
		lo, hi = min(lo, w), max(hi, w)
	}
	if lo > hi*0.9 {
		t.Fatalf("no drain dips visible: cwnd range [%.1f, %.1f]", lo, hi)
	}
}

func TestServedAgentMatchesDirectAgent(t *testing.T) {
	cfg := core.DefaultConfig()
	svc := core.NewSyncService(cfg, nil) // synchronous inside the single-threaded simulator

	_, fd := runAgentOnLink(t, core.NewAgent(cfg, nil), 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 10)
	_, fs := runAgentOnLink(t, core.NewAgent(cfg, svc), 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 10)
	if fd.DeliveredBytes != fs.DeliveredBytes {
		t.Fatalf("served agent diverged: %d vs %d bytes", fs.DeliveredBytes, fd.DeliveredBytes)
	}
	if svc.Requests == 0 {
		t.Fatal("service was never consulted")
	}
}

func TestAgentLossEndsStartupAndHalves(t *testing.T) {
	agent := core.NewAgent(core.DefaultConfig(), nil)
	// Tiny buffer: slow start overshoots and must react to the loss.
	_, fr := runAgentOnLink(t, agent, 20e6, 0.040, 3*transport.MSS, 5)
	if core.InStartup(agent) {
		t.Fatal("loss did not end startup")
	}
	if fr.LostPackets == 0 {
		t.Fatal("expected losses on a 3-packet buffer")
	}
}
