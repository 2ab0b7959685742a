// The fairness lab: the Fair-Aurora-style ablation over reward strategies.
// Each registered RewardStrategy trains its own short-budget learner under
// identical conditions (same seed, same network, same episode distribution),
// then the trained policies are evaluated head-to-head on a fixed scenario
// grid. The report ranks strategies on Jain-over-time fairness, convergence
// speed, and the throughput each fairness point costs — the question the
// strategy interface exists to answer.

package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/runner"
)

// FairnessLabOptions sizes the ablation. The zero value is NOT runnable;
// use DefaultFairnessLabOptions and override.
type FairnessLabOptions struct {
	// Strategies to train and compare, by name (core.NewRewardStrategy).
	Strategies []string
	// Episodes is the training budget per strategy.
	Episodes int
	// Seed drives every learner and evaluation scenario; the whole lab is a
	// pure function of it.
	Seed int64
	// Workers bounds concurrent strategy training; <= 0 trains serially.
	Workers int
	// Hidden sizes the learner networks. Short-budget ablations need far
	// smaller actors than the paper default.
	Hidden []int
	// EvalDuration is the simulated seconds per evaluation scenario.
	EvalDuration float64
}

// DefaultFairnessLabOptions compares all four strategy families at a budget
// that trains in minutes on one machine.
func DefaultFairnessLabOptions() FairnessLabOptions {
	return FairnessLabOptions{
		Strategies:   []string{"paper", "aurora", "maxmin", "alpha:2"},
		Episodes:     8,
		Seed:         1,
		Workers:      4,
		Hidden:       []int{16, 12},
		EvalDuration: 16,
	}
}

// StrategyOutcome is one strategy's row in the lab report.
type StrategyOutcome struct {
	Strategy string `json:"strategy"`
	// FinalReward is the mean reward of the last trained episode (in the
	// strategy's own units — comparable in sign and bound, not in shape).
	FinalReward float64 `json:"final_reward"`
	// ConvergenceEpisodes counts episodes until the smoothed reward history
	// first reaches 90% of its total improvement (Fair-Aurora's convergence
	// speed metric, in units of training episodes).
	ConvergenceEpisodes int `json:"convergence_episodes"`
	// JainMean is the mean Jain index over time, averaged across the
	// evaluation grid (fairness while ≥2 flows are active).
	JainMean float64 `json:"jain_mean"`
	// Utilization is the mean bottleneck utilization across the grid.
	Utilization float64 `json:"utilization"`
	// ThroughputCost is the utilization given up per point of Jain gained,
	// measured against the highest-utilization strategy in this run (that
	// strategy itself reports 0).
	ThroughputCost float64 `json:"throughput_cost"`
	// Score = JainMean × Utilization, the ranking key: fairness bought by
	// throwing away the link is not rewarded.
	Score float64 `json:"score"`
	Rank  int     `json:"rank"`
	// RewardHistory and JainSeries (first grid scenario) support plotting.
	RewardHistory []float64 `json:"reward_history"`
	JainSeries    []float64 `json:"jain_series"`
}

// FairnessLabReport is the full ablation result, strategies in rank order.
type FairnessLabReport struct {
	Episodes      int               `json:"episodes"`
	Seed          int64             `json:"seed"`
	EvalScenarios int               `json:"eval_scenarios"`
	Outcomes      []StrategyOutcome `json:"outcomes"`

	// Actors holds each strategy's trained policy (by canonical name) so
	// callers can persist them — e.g. for a tournament between
	// differently-rewarded Astraea variants. Not serialized with the report.
	Actors map[string]*core.MLPPolicy `json:"-"`
}

// labLearner builds one strategy's short-budget learner.
func labLearner(opts FairnessLabOptions, reward string) *env.ParallelLearner {
	cfg := core.DefaultConfig()
	cfg.BatchSize, cfg.ModelUpdateInterval, cfg.ModelUpdateSteps = 48, 2, 4
	cfg.Reward, cfg.Hidden, cfg.ReplayCap = reward, opts.Hidden, 4000
	dist := env.DefaultTrainingDistribution()
	dist.MinFlows, dist.MaxFlows = 2, 3
	dist.EpisodeDuration = 4
	// Every strategy trains from the same fold of the lab seed: identical
	// initial weights and episode draws, so outcome differences are the
	// objective's doing. One rollout worker keeps each learner on the serial
	// trajectory; the lab's parallelism is across strategies.
	return env.NewParallelLearner(cfg, dist, rng.Fold(opts.Seed, 77), 1)
}

// labEvalGrid is the fixed head-to-head evaluation: staggered arrivals, an
// incast, and RTT heterogeneity — the three fairness stressors the paper
// evaluates separately.
func labEvalGrid(opts FairnessLabOptions, policy core.Policy) []runner.Scenario {
	dur := opts.EvalDuration
	agent := func(p core.Policy) runner.FlowSpec {
		return runner.FlowSpec{CC: core.NewAgent(core.DefaultConfig(), p)}
	}
	mk := func(rate, rtt float64, n int, stagger float64, extra []float64) runner.Scenario {
		// One policy clone per scenario: MLP forward passes share scratch
		// buffers, so concurrent scenarios must not share a network.
		p := core.ClonePolicy(policy)
		sc := runner.Scenario{
			Seed: opts.Seed, RateBps: rate, BaseRTT: rtt,
			QueueBDP: 2, Duration: dur,
		}
		for i := 0; i < n; i++ {
			fs := agent(p)
			fs.Start = float64(i) * stagger
			if extra != nil {
				fs.ExtraDelay = extra[i%len(extra)]
			}
			sc.Flows = append(sc.Flows, fs)
		}
		return sc
	}
	return []runner.Scenario{
		mk(60e6, 0.030, 3, dur/8, nil),             // staggered arrivals
		mk(100e6, 0.020, 4, 0, nil),                // incast
		mk(40e6, 0.050, 2, 0, []float64{0, 0.020}), // RTT heterogeneity
	}
}

// convergenceEpisodes returns 1-based episodes until the 3-episode smoothed
// reward first covers 90% of its total improvement. A history that never
// improves converges immediately (1); an empty history reports 0.
func convergenceEpisodes(hist []float64) int {
	if len(hist) == 0 {
		return 0
	}
	smooth := make([]float64, len(hist))
	for i := range hist {
		lo := i - 2
		if lo < 0 {
			lo = 0
		}
		var s float64
		for _, v := range hist[lo : i+1] {
			s += v
		}
		smooth[i] = s / float64(i+1-lo)
	}
	initial, final := smooth[0], smooth[len(smooth)-1]
	if final <= initial {
		return 1
	}
	target := initial + 0.9*(final-initial)
	for i, v := range smooth {
		if v >= target {
			return i + 1
		}
	}
	return len(smooth)
}

// RunFairnessLab trains one learner per strategy and evaluates the trained
// policies on the shared grid. Deterministic for a fixed options value.
func RunFairnessLab(opts FairnessLabOptions) (*FairnessLabReport, error) {
	if len(opts.Strategies) == 0 {
		return nil, fmt.Errorf("experiments: fairness lab needs at least one strategy")
	}
	if opts.Episodes < 1 {
		return nil, fmt.Errorf("experiments: fairness lab needs a positive episode budget")
	}
	for _, s := range opts.Strategies {
		if _, err := core.NewRewardStrategy(s); err != nil {
			return nil, err
		}
	}

	outcomes := make([]StrategyOutcome, len(opts.Strategies))
	actors := make([]*core.MLPPolicy, len(opts.Strategies))
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	err := runner.ForEach(len(opts.Strategies), workers, func(i int) error {
		strat := core.MustRewardStrategy(opts.Strategies[i])
		l := labLearner(opts, strat.Name())
		hist := l.Train(opts.Episodes)

		out := StrategyOutcome{
			Strategy:            strat.Name(),
			FinalReward:         hist[len(hist)-1],
			ConvergenceEpisodes: convergenceEpisodes(hist),
			RewardHistory:       append([]float64(nil), hist...),
		}
		var jainSum, utilSum float64
		grid := labEvalGrid(opts, l.Policy())
		for gi, sc := range grid {
			res, err := runner.Run(sc)
			if err != nil {
				return err
			}
			jains := metrics.JainOverTime(tputSeries(res), 1e6)
			jainSum += metrics.Mean(jains)
			utilSum += res.Utilization
			if gi == 0 {
				out.JainSeries = jains
			}
		}
		out.JainMean = jainSum / float64(len(grid))
		out.Utilization = utilSum / float64(len(grid))
		out.Score = out.JainMean * out.Utilization
		outcomes[i] = out
		actors[i] = l.Policy()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Throughput cost per fairness point, against the most throughput-hungry
	// strategy of this run. ΔJain is floored so a strategy that buys no
	// fairness reports a large finite cost instead of dividing by ~zero.
	base := 0
	for i := range outcomes {
		if outcomes[i].Utilization > outcomes[base].Utilization {
			base = i
		}
	}
	for i := range outcomes {
		if i == base {
			continue
		}
		dJain := outcomes[i].JainMean - outcomes[base].JainMean
		if dJain < 1e-3 {
			dJain = 1e-3
		}
		cost := (outcomes[base].Utilization - outcomes[i].Utilization) / dJain
		if cost < 0 {
			cost = 0 // fairer and faster than the baseline: free fairness
		}
		outcomes[i].ThroughputCost = cost
	}

	sort.SliceStable(outcomes, func(a, b int) bool {
		return outcomes[a].Score > outcomes[b].Score
	})
	for i := range outcomes {
		outcomes[i].Rank = i + 1
	}
	byName := make(map[string]*core.MLPPolicy, len(actors))
	for i, a := range actors {
		byName[core.MustRewardStrategy(opts.Strategies[i]).Name()] = a
	}
	return &FairnessLabReport{
		Episodes:      opts.Episodes,
		Seed:          opts.Seed,
		EvalScenarios: len(labEvalGrid(opts, nil)),
		Outcomes:      outcomes,
		Actors:        byName,
	}, nil
}

// Table renders the report in the repository's standard table form.
func (r *FairnessLabReport) Table() *Table {
	t := &Table{
		ID:    "fairness_lab",
		Title: fmt.Sprintf("reward-strategy ablation (%d episodes/strategy, seed %d)", r.Episodes, r.Seed),
		Columns: []string{"rank", "strategy", "jain", "util", "conv_eps",
			"tput_cost", "final_reward", "score"},
		Note: "rank = Jain × utilization; tput_cost = utilization forgone per Jain point vs the most throughput-hungry strategy",
	}
	for _, o := range r.Outcomes {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(o.Rank), o.Strategy, f3(o.JainMean), f3(o.Utilization),
			fmt.Sprint(o.ConvergenceEpisodes), f3(o.ThroughputCost),
			fmt.Sprintf("%+.5f", o.FinalReward), f3(o.Score),
		})
	}
	return t
}

// JSON renders the report as indented JSON.
func (r *FairnessLabReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Strategies lists the outcome names in rank order (test convenience).
func (r *FairnessLabReport) Strategies() []string {
	out := make([]string, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = o.Strategy
	}
	return out
}

// SanitizeStrategyFilename maps a strategy name to a filesystem-safe stem
// ("alpha:2" → "alpha_2") for saved actor weights.
func SanitizeStrategyFilename(name string) string {
	return strings.ReplaceAll(name, ":", "_")
}
