package runner

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestDistilledPolicyClosedLoop exercises the full neural pipeline the way
// deployment does: distill the reference policy into the MLP actor, load it
// into agents, and verify the closed-loop multi-flow behaviour survives the
// approximation — near-equal sharing and high utilization.
func TestDistilledPolicyClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("distillation + multi-flow scenario")
	}
	cfg := core.DefaultConfig()
	cfg.Hidden = []int{128, 64}
	opts := core.DefaultDistillOptions()
	opts.Samples = 12000
	opts.Epochs = 25
	net, loss := core.DistillPolicy(cfg, opts)
	// The reference law has hard clamps and a discontinuous loss guard, so
	// a compact net cannot fit it exactly; what matters is that the
	// closed-loop behaviour below survives the approximation.
	if loss > 0.05 {
		t.Fatalf("imitation MSE %v too high to deploy", loss)
	}

	mk := func() *core.Agent {
		return core.NewAgent(cfg, &core.MLPPolicy{Net: net})
	}
	res := MustRun(Scenario{
		Seed: 31, RateBps: 100e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 60,
		Flows: []FlowSpec{
			{CC: mk(), Start: 0},
			{CC: mk(), Start: 10},
			{CC: mk(), Start: 20},
		},
	})
	var avgs []float64
	for _, fr := range res.Flows {
		avgs = append(avgs, fr.AvgTputWindow(40, 60))
	}
	jain := metrics.Jain(avgs)
	if jain < 0.90 {
		t.Fatalf("distilled-policy Jain %.3f, want ≥ 0.90 (avgs %v)", jain, avgs)
	}
	if res.Utilization < 0.85 {
		t.Fatalf("distilled-policy utilization %.3f", res.Utilization)
	}
}

// TestServedPolicyClosedLoop drives several flows through one shared
// inference service (the §4 deployment architecture) inside the simulator.
func TestServedPolicyClosedLoop(t *testing.T) {
	cfg := core.DefaultConfig()
	svc := core.NewSyncService(cfg, nil) // synchronous inside the single-threaded simulator

	mk := func() *core.Agent { return core.NewAgent(cfg, svc) }
	res := MustRun(Scenario{
		Seed: 33, RateBps: 100e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 40,
		Flows: []FlowSpec{
			{CC: mk(), Start: 0},
			{CC: mk(), Start: 5},
		},
	})
	var avgs []float64
	for _, fr := range res.Flows {
		avgs = append(avgs, fr.AvgTputWindow(20, 40))
	}
	if jain := metrics.Jain(avgs); jain < 0.95 {
		t.Fatalf("served agents Jain %.3f", jain)
	}
	if svc.Requests == 0 {
		t.Fatal("the shared service was never used")
	}
}
