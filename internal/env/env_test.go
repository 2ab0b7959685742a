package env

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rl"
)

func TestTrainingDistributionRanges(t *testing.T) {
	d := DefaultTrainingDistribution()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		cfg := d.Sample(rng)
		if cfg.RateBps < d.BwMinBps || cfg.RateBps > d.BwMaxBps {
			t.Fatalf("bandwidth %v outside Table 3 range", cfg.RateBps)
		}
		if cfg.BaseRTT < d.RTTMin || cfg.BaseRTT > d.RTTMax {
			t.Fatalf("RTT %v outside Table 3 range", cfg.BaseRTT)
		}
		if cfg.BufBDP < d.BufMinBDP || cfg.BufBDP > d.BufMaxBDP {
			t.Fatalf("buffer %v outside Table 3 range", cfg.BufBDP)
		}
		if n := len(cfg.Flows); n < 2 || n > 5 {
			t.Fatalf("flow count %d outside 2..5", n)
		}
	}
}

func TestBufferFactorLogUniform(t *testing.T) {
	d := DefaultTrainingDistribution()
	rng := rand.New(rand.NewSource(2))
	below1 := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if d.Sample(rng).BufBDP < 1.26 { // geometric midpoint of [0.1, 16]
			below1++
		}
	}
	frac := float64(below1) / n
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("log-uniform buffer sampling skewed: %.2f below midpoint", frac)
	}
}

func TestPoissonArrivals(t *testing.T) {
	cfg := EpisodeConfig{Flows: make([]FlowPlan, 200)}
	rng := rand.New(rand.NewSource(3))
	cfg.PoissonArrivals(rng, 2.0)
	if cfg.Flows[0].Start != 0 {
		t.Fatal("first arrival should be at 0")
	}
	var gaps []float64
	for i := 1; i < len(cfg.Flows); i++ {
		g := cfg.Flows[i].Start - cfg.Flows[i-1].Start
		if g < 0 {
			t.Fatal("arrivals not monotone")
		}
		gaps = append(gaps, g)
	}
	var mean float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	if mean < 1.5 || mean > 2.5 {
		t.Fatalf("mean gap %v, want ≈2", mean)
	}
}

func TestRunEpisodeProducesTransitions(t *testing.T) {
	cfg := EpisodeConfig{
		RateBps: 50e6, BaseRTT: 0.030, BufBDP: 1, Duration: 8,
		Flows: []FlowPlan{{Start: 0}, {Start: 1}},
	}
	agentCfg := core.DefaultConfig()
	rb := rl.NewReplayBuffer(100000)
	var seen []rl.Transition
	res := RunEpisode(cfg, agentCfg, nil, 7, rb, nil, func(i int, tr rl.Transition) {
		seen = append(seen, tr)
	})
	if rb.Len() == 0 {
		t.Fatal("no transitions collected")
	}
	if len(seen) != rb.Len() {
		t.Fatalf("onStep saw %d, buffer has %d", len(seen), rb.Len())
	}
	for _, tr := range seen[:10] {
		if len(tr.State) != agentCfg.StateDim() || len(tr.NextState) != agentCfg.StateDim() {
			t.Fatalf("state dims %d/%d", len(tr.State), len(tr.NextState))
		}
		if len(tr.Global) != core.GlobalFeatureDim {
			t.Fatalf("global dim %d", len(tr.Global))
		}
		if len(tr.Action) != 1 || tr.Action[0] < -1 || tr.Action[0] > 1 {
			t.Fatalf("action %v", tr.Action)
		}
		if math.Abs(tr.Reward) > 0.1 {
			t.Fatalf("reward %v outside bound", tr.Reward)
		}
	}
	if res.AvgReward == 0 {
		t.Fatal("episode reported zero average reward despite activity")
	}
}

// TestTransitionsChain: each transition pairs an action with the state the
// policy chose it in, so per flow the next-state half of transition j is
// the state half of transition j+1.
func TestTransitionsChain(t *testing.T) {
	cfg := EpisodeConfig{
		RateBps: 50e6, BaseRTT: 0.030, BufBDP: 1, Duration: 8,
		Flows: []FlowPlan{{Start: 0}, {Start: 1}},
	}
	agentCfg := core.DefaultConfig()
	byFlow := make([][]rl.Transition, len(cfg.Flows))
	RunEpisode(cfg, agentCfg, nil, 7, nil, nil, func(i int, tr rl.Transition) {
		byFlow[i] = append(byFlow[i], tr)
	})
	for i, trs := range byFlow {
		if len(trs) < 100 {
			t.Fatalf("flow %d: only %d transitions", i, len(trs))
		}
		broken := 0
		for j := 0; j+1 < len(trs); j++ {
			if !slices.Equal(trs[j].NextState, trs[j+1].State) || !slices.Equal(trs[j].NextGlobal, trs[j+1].Global) {
				broken++
			}
		}
		if broken > 0 {
			t.Errorf("flow %d: %d of %d consecutive pairs do not chain", i, broken, len(trs)-1)
		}
	}
}

func TestEpisodeRewardReflectsQuality(t *testing.T) {
	// The reference policy (fair, efficient) must out-reward a pathological
	// always-shrink policy on the same episode.
	cfg := EpisodeConfig{
		RateBps: 50e6, BaseRTT: 0.030, BufBDP: 1, Duration: 8,
		Flows: []FlowPlan{{Start: 0}, {Start: 0.5}},
	}
	agentCfg := core.DefaultConfig()
	good := RunEpisode(cfg, agentCfg, nil, 5, nil, nil, nil)
	bad := RunEpisode(cfg, agentCfg, alwaysAction(-1), 5, nil, nil, nil)
	if good.AvgReward <= bad.AvgReward {
		t.Fatalf("reference policy reward %v not above always-shrink %v",
			good.AvgReward, bad.AvgReward)
	}
	if good.Components.Thr <= bad.Components.Thr {
		t.Fatalf("throughput component %v vs %v", good.Components.Thr, bad.Components.Thr)
	}
}

type alwaysAction float64

func (a alwaysAction) Action([]float64) float64 { return float64(a) }

func TestExplorationPerturbsActions(t *testing.T) {
	cfg := EpisodeConfig{
		RateBps: 50e6, BaseRTT: 0.030, BufBDP: 1, Duration: 5,
		Flows: []FlowPlan{{Start: 0}, {Start: 0.5}},
	}
	agentCfg := core.DefaultConfig()
	rb := rl.NewReplayBuffer(100000)
	RunEpisode(cfg, agentCfg, alwaysAction(0), 9, rb, &Exploration{Stddev: 0.2}, nil)
	rng := rand.New(rand.NewSource(1))
	nonZero := 0
	sample := rb.Sample(rng, 100, nil)
	for _, tr := range sample {
		if tr.Action[0] != 0 {
			nonZero++
		}
	}
	if nonZero < 80 {
		t.Fatalf("exploration noise absent: %d/100 perturbed", nonZero)
	}
}

func TestObserverGlobalStateAggregation(t *testing.T) {
	cfg := EpisodeConfig{
		RateBps: 50e6, BaseRTT: 0.030, BufBDP: 1, Duration: 6,
		Flows: []FlowPlan{{Start: 0}, {Start: 0}},
	}
	agentCfg := core.DefaultConfig()
	var lastGlobal []float64
	RunEpisode(cfg, agentCfg, nil, 11, nil, nil, func(i int, tr rl.Transition) {
		lastGlobal = tr.Global
	})
	if lastGlobal == nil {
		t.Fatal("no global states observed")
	}
	// With both flows active at steady state, overall utilization feature
	// should be near 1 and flow count 2 (feature = n/10).
	if lastGlobal[0] < 0.5 || lastGlobal[0] > 1.3 {
		t.Fatalf("overall-throughput feature %v", lastGlobal[0])
	}
	if math.Abs(lastGlobal[8]-0.2) > 1e-9 {
		t.Fatalf("numFlows feature %v, want 0.2", lastGlobal[8])
	}
}
