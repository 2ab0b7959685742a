// Package env implements the paper's multi-flow training environment
// (§3.2). TrainingDistribution draws episodes from Table 3, with
// randomized (optionally Poisson) arrivals and heterogeneous RTTs.
// RunEpisode runs one on runner.Run, the simulator path every experiment
// uses: each flow is a core.Agent whose OnDecision hook reports every
// decision to the Observer, which gathers the world observation of all
// active flows into the global state of Table 2 and the reward, and pairs
// each action with the state it was chosen in. Episodes yield
// (g, s, a, g', s', r) transitions for the multi-agent trainer in
// internal/rl.
package env

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/runner"
	"repro/internal/transport"
)

// TrainingDistribution is Table 3: the ranges episode link parameters are
// drawn from.
type TrainingDistribution struct {
	BwMinBps, BwMaxBps   float64
	RTTMin, RTTMax       float64 // seconds
	BufMinBDP, BufMaxBDP float64
	MinFlows, MaxFlows   int
	// ExtraRTTMax adds up to this much per-flow one-way delay for RTT
	// heterogeneity (§4: "assign multiple running flows ... with different
	// RTTs").
	ExtraRTTMax float64
	// EpisodeDuration is the simulated seconds per episode.
	EpisodeDuration float64
}

// DefaultTrainingDistribution returns Table 3's ranges with 2–5 flows.
func DefaultTrainingDistribution() TrainingDistribution {
	return TrainingDistribution{
		BwMinBps: 40e6, BwMaxBps: 160e6,
		RTTMin: 0.010, RTTMax: 0.140,
		BufMinBDP: 0.1, BufMaxBDP: 16,
		MinFlows: 2, MaxFlows: 5,
		ExtraRTTMax:     0.020,
		EpisodeDuration: 30,
	}
}

// Sample draws one episode's link configuration.
func (d TrainingDistribution) Sample(rng *rand.Rand) EpisodeConfig {
	bw := d.BwMinBps + rng.Float64()*(d.BwMaxBps-d.BwMinBps)
	rtt := d.RTTMin + rng.Float64()*(d.RTTMax-d.RTTMin)
	// Buffer factor sampled log-uniformly: the [0.1, 16] range spans two
	// orders of magnitude.
	logLo, logHi := math.Log(d.BufMinBDP), math.Log(d.BufMaxBDP)
	buf := math.Exp(logLo + rng.Float64()*(logHi-logLo))
	n := d.MinFlows
	if d.MaxFlows > d.MinFlows {
		n += rng.Intn(d.MaxFlows - d.MinFlows + 1)
	}
	cfg := EpisodeConfig{
		RateBps: bw, BaseRTT: rtt, BufBDP: buf,
		Duration: d.EpisodeDuration,
	}
	for i := 0; i < n; i++ {
		cfg.Flows = append(cfg.Flows, FlowPlan{
			Start:      rng.Float64() * 5,
			ExtraDelay: rng.Float64() * d.ExtraRTTMax,
		})
	}
	return cfg
}

// FlowPlan schedules one training flow.
type FlowPlan struct {
	Start      float64
	Duration   float64 // zero = until episode end
	ExtraDelay float64
}

// EpisodeConfig fully describes one training episode.
type EpisodeConfig struct {
	RateBps  float64
	BaseRTT  float64
	BufBDP   float64
	LossProb float64
	Duration float64
	Flows    []FlowPlan
}

// PoissonArrivals rewrites the flow start times as a Poisson process with
// the given mean inter-arrival gap, as the paper recommends to avoid
// overfitting to deterministic patterns.
func (c *EpisodeConfig) PoissonArrivals(rng *rand.Rand, meanGap float64) {
	t := 0.0
	for i := range c.Flows {
		c.Flows[i].Start = t
		t += rng.ExpFloat64() * meanGap
	}
}

// flowTracker is the Observer's per-flow record: the latest MTP statistics
// and the w-deep throughput history the reward block needs.
type flowTracker struct {
	flow     *transport.Flow
	last     transport.MTPStats
	haveMTP  bool
	tputHist []float64

	pending *rl.Transition // transition awaiting its next-state half
}

// Observer assembles global states and rewards across all active flows.
// In the paper this is a message-passing component; in-process it reads the
// trackers directly, preserving the same information flow.
type Observer struct {
	cfg      core.Config
	strategy core.RewardStrategy
	link     LinkFacts
	trackers []*flowTracker
}

// LinkFacts is the environment ground truth included in the global state
// (Table 2's d0, buf, c).
type LinkFacts struct {
	Bandwidth float64
	BaseOWD   float64
	BufBytes  float64
}

// GlobalState builds the Table 2 aggregate over currently-active flows.
func (o *Observer) GlobalState() core.GlobalState {
	g := core.GlobalState{
		BaseOWD:   o.link.BaseOWD,
		BufBytes:  o.link.BufBytes,
		Bandwidth: o.link.Bandwidth,
	}
	var latSum, lossSum float64
	first := true
	for _, tr := range o.trackers {
		if !tr.flow.Active() || !tr.haveMTP {
			continue
		}
		st := tr.last
		g.NumFlows++
		g.OvrTput += st.ThroughputBps
		if first || st.ThroughputBps < g.MinTput {
			g.MinTput = st.ThroughputBps
		}
		if st.ThroughputBps > g.MaxTput {
			g.MaxTput = st.ThroughputBps
		}
		if first || st.CwndPkts < g.MinCwnd {
			g.MinCwnd = st.CwndPkts
		}
		if st.CwndPkts > g.MaxCwnd {
			g.MaxCwnd = st.CwndPkts
		}
		g.AvgCwnd += st.CwndPkts
		latSum += st.AvgRTT
		lossSum += st.LossRate
		first = false
	}
	if g.NumFlows > 0 {
		g.AvgCwnd /= float64(g.NumFlows)
		g.AvgLat = latSum / float64(g.NumFlows)
		g.LossRatio = lossSum / float64(g.NumFlows)
	}
	return g
}

// Reward evaluates the configured reward strategy (cfg.Reward; the paper's
// Eqs. 4–8 by default) over the current world observation.
func (o *Observer) Reward() core.RewardComponents {
	var obs []core.FlowObs
	for _, tr := range o.trackers {
		if !tr.flow.Active() || !tr.haveMTP {
			continue
		}
		st := tr.last
		obs = append(obs, core.FlowObs{
			TputBps:     st.ThroughputBps,
			TputHistory: tr.tputHist,
			AvgLat:      st.AvgRTT,
			LossBps:     float64(st.LostBytes) * 8 / st.Duration,
			PacingBps:   st.PacingBps,
		})
	}
	return o.strategy.Evaluate(o.cfg, obs, core.LinkInfo{
		Bandwidth: o.link.Bandwidth,
		BaseOWD:   o.link.BaseOWD,
	})
}

// EpisodeResult summarizes a finished episode.
type EpisodeResult struct {
	AvgReward  float64
	Components core.RewardComponents // time-averaged
	Duration   float64
}

// Exploration configures behaviour noise during episode collection.
type Exploration struct {
	Stddev float64
}

// explored is Exploration as a policy: Gaussian noise on each action of
// the wrapped policy, drawn from the episode simulator's RNG. The agent
// clamps the sum to [-1, 1].
type explored struct {
	policy core.Policy
	stddev float64
	rng    *rand.Rand // set as the flow is created
}

func (e *explored) Action(state []float64) float64 {
	return e.policy.Action(state) + e.rng.NormFloat64()*e.stddev
}

// RunEpisode executes cfg on runner.Run, driving every flow with an Astraea
// agent whose actions come from policy (nil gives each agent its own
// reference policy), optionally perturbed by exploration noise drawn from
// the episode RNG. Each agent's OnDecision hook feeds the Observer, which
// turns the flow's decisions into (g, s, a, g', s', r) transitions.
// Completed transitions are appended to rb when it is non-nil. onStep, when
// set, observes each (flow index, transition) as it completes.
func RunEpisode(cfg EpisodeConfig, agentCfg core.Config, policy core.Policy,
	seed int64, rb *rl.ReplayBuffer, explore *Exploration,
	onStep func(i int, tr rl.Transition)) EpisodeResult {

	bufBytes := max(int(cfg.RateBps/8*cfg.BaseRTT*cfg.BufBDP), 2*transport.MSS)
	obs := &Observer{
		cfg: agentCfg,
		// Resolve once per episode; MustRewardStrategy is the contract that
		// agentCfg.Reward was validated upstream (CLI flag parsing,
		// NewParallelLearner, or the checkpoint loader).
		strategy: core.MustRewardStrategy(agentCfg.Reward),
		link: LinkFacts{
			Bandwidth: cfg.RateBps,
			BaseOWD:   cfg.BaseRTT / 2,
			BufBytes:  float64(bufBytes),
		},
	}

	var rewardSum float64
	var rewardN int
	var compSum core.RewardComponents

	sc := runner.Scenario{
		Seed: seed, RateBps: cfg.RateBps, BaseRTT: cfg.BaseRTT,
		QueueBytes: bufBytes, LossProb: cfg.LossProb, Duration: cfg.Duration,
	}
	agents := make([]*core.Agent, len(cfg.Flows))
	noise := make([]*explored, len(cfg.Flows))
	for i, plan := range cfg.Flows {
		p := policy
		if p == nil {
			p = core.NewReferencePolicy(agentCfg)
		}
		if explore != nil {
			noise[i] = &explored{policy: p, stddev: explore.Stddev}
			p = noise[i]
		}
		agents[i] = core.NewAgent(agentCfg, p)
		sc.Flows = append(sc.Flows, runner.FlowSpec{
			CC: agents[i], Start: plan.Start, Duration: plan.Duration, ExtraDelay: plan.ExtraDelay,
		})
	}
	sc.OnFlowCreated = func(idx int, f *transport.Flow) {
		if noise[idx] != nil {
			noise[idx].rng = f.Sim.Rand()
		}
		tracker := &flowTracker{flow: f}
		obs.trackers = append(obs.trackers, tracker)
		agents[idx].OnDecision = func(_ *transport.Flow, st transport.MTPStats, state []float64, action float64) {
			// Observer bookkeeping (world observation update).
			tracker.last = st
			tracker.haveMTP = true
			tracker.tputHist = append(tracker.tputHist, st.ThroughputBps)
			if len(tracker.tputHist) > agentCfg.HistoryLen {
				tracker.tputHist = tracker.tputHist[1:]
			}

			g := obs.GlobalState()
			rc := obs.Reward()
			rewardSum += rc.Total
			rewardN++
			compSum.Thr += rc.Thr
			compSum.Lat += rc.Lat
			compSum.Loss += rc.Loss
			compSum.Fair += rc.Fair
			compSum.Stab += rc.Stab

			gVec := g.Vector(agentCfg)
			// Close the transition opened at the previous MTP: this MTP's
			// global and local state are its g' and s', and the reward
			// observed now is the one its action earned.
			if tracker.pending != nil {
				tracker.pending.NextGlobal = gVec
				tracker.pending.NextState = state
				tracker.pending.Reward = rc.Total
				if rb != nil {
					rb.Add(*tracker.pending)
				}
				if onStep != nil {
					onStep(idx, *tracker.pending)
				}
				tracker.pending = nil
			}
			// Open one on this decision, once the policy has taken over
			// from startup: (g, s, a) of the same MTP.
			if state != nil {
				tracker.pending = &rl.Transition{
					Global: gVec,
					State:  state,
					Action: []float64{action},
				}
			}
		}
	}
	runner.MustRun(sc)

	res := EpisodeResult{Duration: cfg.Duration}
	if rewardN > 0 {
		res.AvgReward = rewardSum / float64(rewardN)
		res.Components = core.RewardComponents{
			Thr:  compSum.Thr / float64(rewardN),
			Lat:  compSum.Lat / float64(rewardN),
			Loss: compSum.Loss / float64(rewardN),
			Fair: compSum.Fair / float64(rewardN),
			Stab: compSum.Stab / float64(rewardN),
		}
	}
	return res
}
