package core

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/transport"
)

func runAgentOnLink(t *testing.T, agent *Agent, rate, rtt float64, queueBytes int, dur float64) *transport.Flow {
	t.Helper()
	s := sim.New(1)
	d := netem.NewDumbbell(s, netem.DumbbellConfig{RateBps: rate, BaseRTT: rtt, QueueBytes: queueBytes})
	f := transport.NewFlow(s, transport.FlowConfig{ID: 0, Path: d.FlowPath(0), CC: agent})
	f.Start()
	s.Run(dur)
	return f
}

func TestAgentReachesCapacity(t *testing.T) {
	cfg := DefaultConfig()
	agent := NewAgent(cfg, nil)
	f := runAgentOnLink(t, agent, 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 15)
	rate := float64(f.DeliveredBytes) * 8 / 15
	if rate < 40e6 {
		t.Fatalf("agent reached %.1f Mbps of 50", rate/1e6)
	}
}

func TestAgentStartupEndsOnQueueing(t *testing.T) {
	cfg := DefaultConfig()
	agent := NewAgent(cfg, nil)
	if !agent.inStartup {
		t.Fatal("agent should begin in startup")
	}
	runAgentOnLink(t, agent, 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 10)
	if agent.inStartup {
		t.Fatal("startup never exited on a saturated link")
	}
}

func TestAgentActionsRecorded(t *testing.T) {
	cfg := DefaultConfig()
	agent := NewAgent(cfg, nil)
	runAgentOnLink(t, agent, 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 10)
	if agent.LastState == nil || len(agent.LastState) != cfg.StateDim() {
		t.Fatalf("LastState %v", agent.LastState)
	}
	if agent.LastAction < -1 || agent.LastAction > 1 {
		t.Fatalf("LastAction %v", agent.LastAction)
	}
}

func TestAgentActionOverride(t *testing.T) {
	cfg := DefaultConfig()
	agent := NewAgent(cfg, nil)
	agent.DrainPeriod = 0 // isolate the override
	calls := 0
	agent.ActionOverride = func(state []float64, a float64) float64 {
		calls++
		return -1
	}
	f := runAgentOnLink(t, agent, 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 10)
	if calls == 0 {
		t.Fatal("override never invoked")
	}
	// Forced backoff must keep the window pinned near the floor.
	if f.Cwnd() > 20 {
		t.Fatalf("cwnd %v despite constant -1 actions", f.Cwnd())
	}
}

func TestAgentDrainWindowsReduceThenRestore(t *testing.T) {
	cfg := DefaultConfig()
	agent := NewAgent(cfg, nil)
	agent.DrainPeriod = 10
	agent.DrainLen = 2
	agent.drainOffset = 0

	var cwnds []float64
	agent.OnMTPState = func(f *transport.Flow, st transport.MTPStats, ls LocalState) {
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
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if lo > hi*0.9 {
		t.Fatalf("no drain dips visible: cwnd range [%.1f, %.1f]", lo, hi)
	}
}

func TestServedAgentMatchesDirectAgent(t *testing.T) {
	cfg := DefaultConfig()
	svc := NewSyncService(cfg, nil) // synchronous inside the single-threaded simulator

	direct := NewAgent(cfg, nil)
	served := NewServedAgent(cfg, svc)
	// Equalize the drain offsets (they are assigned per-instance).
	served.drainOffset = direct.drainOffset

	fd := runAgentOnLink(t, direct, 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 10)
	fs := runAgentOnLink(t, served, 50e6, 0.040, netem.BDPBytes(50e6, 0.040), 10)
	if fd.DeliveredBytes != fs.DeliveredBytes {
		t.Fatalf("served agent diverged: %d vs %d bytes", fs.DeliveredBytes, fd.DeliveredBytes)
	}
	if svc.Requests == 0 {
		t.Fatal("service was never consulted")
	}
}

func TestAgentLossEndsStartupAndHalves(t *testing.T) {
	cfg := DefaultConfig()
	agent := NewAgent(cfg, nil)
	// Tiny buffer: slow start overshoots and must react to the loss.
	f := runAgentOnLink(t, agent, 20e6, 0.040, 3*transport.MSS, 5)
	if agent.inStartup {
		t.Fatal("loss did not end startup")
	}
	if f.LostPackets == 0 {
		t.Fatal("expected losses on a 3-packet buffer")
	}
}
