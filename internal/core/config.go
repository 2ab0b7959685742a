// Package core implements the Astraea congestion-control agent itself: the
// state block assembling the normalized local observation (§3.3), the
// action block applying the multiplicative cwnd update of Eq. 3, the reward
// block computing the global objective of Eqs. 4–8, the control policy
// (either the neural actor trained by internal/rl or the distilled
// reference policy characterized in §5.5/Fig. 17), and the batched
// inference service of §4.
package core

// Config carries Astraea's hyperparameters. Defaults follow Table 4 of the
// paper.
type Config struct {
	// HistoryLen is w, the number of stacked per-MTP states in the model
	// input.
	HistoryLen int
	// Alpha is the action-control coefficient of Eq. 3.
	Alpha float64
	// MTP is the monitoring time period in seconds.
	MTP float64
	// Beta is the tolerated queueing-delay fraction in the latency reward
	// term (Eq. 5 penalizes only latency above (1+Beta)*d0). The paper does
	// not publish its value; 0.1 keeps small standing queues free.
	Beta float64

	// Reward coefficients c0..c4 of Eq. 8.
	C0, C1, C2, C3, C4 float64

	// Reward names the RewardStrategy the training environment optimizes
	// (see NewRewardStrategy): "paper" (or empty, the Eqs. 4–8 default),
	// "aurora", "maxmin", or "alpha[:α]". It rides along in checkpoints so
	// a learner trained under one objective cannot silently resume under
	// another.
	Reward string

	// Gamma is the RL discount factor.
	Gamma float64
	// LearningRate for actor and critic.
	LearningRate float64
	// BatchSize for training updates.
	BatchSize int
	// ModelUpdateInterval (seconds of environment time per training round)
	// and ModelUpdateSteps (gradient steps per round).
	ModelUpdateInterval float64
	ModelUpdateSteps    int
	// Hidden sizes the actor's and critics' hidden layers, ReplayCap the
	// replay ring; checkpoints carry both outside the config JSON.
	Hidden    []int `json:"-"`
	ReplayCap int   `json:"-"`

	// Feature normalization scales: throughputs are divided by TputScale
	// (bits/sec) and latencies by LatScale (seconds) where the paper keeps
	// raw values (thrmax, latmin), so the network sees O(1) inputs.
	TputScale float64
	LatScale  float64
}

// DefaultConfig returns Table 4's values.
func DefaultConfig() Config {
	return Config{
		HistoryLen:          5,
		Alpha:               0.025,
		MTP:                 0.030,
		Beta:                0.1,
		C0:                  0.1,
		C1:                  0.02,
		C2:                  1,
		C3:                  0.02,
		C4:                  0.01,
		Gamma:               0.98,
		LearningRate:        0.001,
		BatchSize:           192,
		ModelUpdateInterval: 5,
		ModelUpdateSteps:    20,
		Hidden:              []int{256, 128, 64},
		ReplayCap:           200000,
		TputScale:           1e8, // 100 Mbps
		LatScale:            0.1, // 100 ms
	}
}

// LocalFeatureDim is the per-MTP local state width (the eight features of
// §3.3).
const LocalFeatureDim = 8

// GlobalFeatureDim is the global state width (the twelve fields of
// Table 2).
const GlobalFeatureDim = 12

// StateDim returns the stacked actor input width (w × 8).
func (c Config) StateDim() int { return c.HistoryLen * LocalFeatureDim }

// RewardName returns the canonical name of the configured reward strategy
// ("" normalizes to "paper", "alpha" to "alpha:1"). An unresolvable name is
// returned verbatim — validation belongs to the call sites that instantiate
// the strategy (CLI flag parsing, checkpoint loading), which report it as
// an error rather than a panic.
func (c Config) RewardName() string {
	if s, err := NewRewardStrategy(c.Reward); err == nil {
		return s.Name()
	}
	return c.Reward
}
