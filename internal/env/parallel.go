package env

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Sub-seed streams: the trainer (network init, batch sampling, noise) and
// the episode sampler (scenario draws, arrival processes, per-episode sim
// seeds) must consume decorrelated streams even though the user supplies
// one seed. Seeding both from the same value — as earlier revisions did —
// correlates exploration noise with scenario draws.
const (
	streamTrainer = 1
	streamEpisode = 2
)

// ParallelLearner is the centralized trainer of §3.1/§3.4: it owns the
// shared actor/critic networks, collects experience from episodes run under
// the current policy (with exploration noise), and performs TD3/MADDPG
// updates — ModelUpdateSteps gradient steps per ModelUpdateInterval of
// episode time, mirroring the paper's schedule. It runs several
// training-environment instances concurrently (Appendix A: the paper's
// evaluation model is trained with 4 instances sharing the same actor and
// critic networks). Worker goroutines simulate episodes against snapshots
// of the current policy and stream transitions back; the learner goroutine
// owns the replay buffer and the networks and applies the update schedule
// after each completed episode. With one worker every episode runs against
// the actor as its predecessor's updates left it, which is the serial
// trajectory: a checkpoint then resumes bitwise (see checkpoint.go).
type ParallelLearner struct {
	Cfg     core.Config
	Dist    TrainingDistribution
	Trainer *rl.Trainer
	Replay  *rl.ReplayBuffer
	Workers int

	rng *rng.Rand

	// AfterEpisode, when set, is invoked by the learner goroutine inside
	// Train after each episode's update steps complete, with the total
	// episode count. It runs on the goroutine that owns the networks, so it
	// may call SnapshotActor, SaveCheckpoint, and Stop safely — this is the
	// pilot's cadence hook for checkpointing and candidate export. Keep it
	// fast: workers idle while it runs.
	AfterEpisode func(episodes int)

	// stopped makes Train return early (after draining episodes already
	// dispatched) — set by Stop from any goroutine.
	stopped atomic.Bool

	// Telemetry instruments; nil (no-op) unless Instrument was called.
	mEpisodes *telemetry.Counter
	mReward   *telemetry.Gauge
	mCkptSecs *telemetry.Gauge
	mCkptByte *telemetry.Counter

	// handOver, when set, is called on a worker once an episode has
	// finished, with its dispatch index (counted from 0 in each Train call)
	// and the function that hands its outcome to the learner, which it must
	// call once: tests use it to force a completion order.
	handOver func(idx int, send func())

	// Episodes counts applied episodes; RewardHistory records each
	// episode's average reward, in dispatch order, for convergence
	// inspection.
	Episodes      int
	RewardHistory []float64
}

// Instrument registers training-progress telemetry on reg (episode count
// and latest episode reward) and forwards reg to the TD3 trainer. Call
// before Train; the learner goroutine owns all writes, so a live /metrics
// scrape during training is race-free.
func (p *ParallelLearner) Instrument(reg *telemetry.Registry) {
	p.mEpisodes = reg.Counter("env_episodes_total", "training episodes completed")
	p.mReward = reg.Gauge("env_episode_reward", "average reward of the latest episode")
	p.mCkptSecs = reg.Gauge("ckpt_last_write_seconds", "wall time of the latest checkpoint write")
	p.mCkptByte = reg.Counter("ckpt_bytes_written_total", "bytes of checkpoint data written")
	p.Trainer.Instrument(reg)
}

// StrategyName reports the reward strategy this learner trains under.
func (p *ParallelLearner) StrategyName() string { return p.Cfg.RewardName() }

// NewParallelLearner builds a learner with fresh networks and the given
// worker count (minimum 1). cfg.Reward must name a registered reward
// strategy (empty = paper default); an unknown name panics here, at
// construction, rather than mid-episode — CLI entry points validate the
// flag with core.NewRewardStrategy first and report a proper error.
func NewParallelLearner(cfg core.Config, dist TrainingDistribution, seed int64, workers int) *ParallelLearner {
	core.MustRewardStrategy(cfg.Reward) // fail at construction, not mid-episode
	// τ, the policy delay and the noise settings stay at rl's defaults.
	rlCfg := rl.DefaultConfig(cfg.StateDim(), core.GlobalFeatureDim, 1)
	rlCfg.Hidden, rlCfg.Gamma, rlCfg.Batch = cfg.Hidden, cfg.Gamma, cfg.BatchSize
	rlCfg.ActorLR, rlCfg.CriticLR = cfg.LearningRate, cfg.LearningRate
	return &ParallelLearner{
		Cfg:     cfg,
		Dist:    dist,
		Trainer: rl.NewTrainer(rlCfg, rng.Fold(seed, streamTrainer)),
		Replay:  rl.NewReplayBuffer(cfg.ReplayCap),
		Workers: max(workers, 1),
		rng:     rng.New(rng.Fold(seed, streamEpisode)),
	}
}

type episodeOutcome struct {
	idx         int // dispatch index within the Train call
	result      EpisodeResult
	transitions []rl.Transition
}

// Train runs the requested number of episodes across the workers and
// returns the per-episode reward history. Outcomes are applied in dispatch
// order whatever order the workers finish in, so for a fixed worker count
// the replay contents, the update sequence, the reward history and the
// networks are a function of the seed alone.
func (p *ParallelLearner) Train(episodes int) []float64 {
	type job struct {
		idx  int
		cfg  EpisodeConfig
		seed int64
		// policy is a snapshot of the actor at dispatch time; each worker
		// needs its own network because MLP forward passes share scratch
		// buffers.
		policy core.Policy
	}
	jobs := make(chan job)
	outcomes := make(chan episodeOutcome)
	explore := &Exploration{Stddev: p.Trainer.Cfg.ExploreNoise}

	var wg sync.WaitGroup
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				var buf []rl.Transition
				res := RunEpisode(j.cfg, p.Cfg, j.policy, j.seed, nil, explore,
					func(i int, tr rl.Transition) { buf = append(buf, tr) })
				send := func() { outcomes <- episodeOutcome{idx: j.idx, result: res, transitions: buf} }
				if p.handOver != nil {
					p.handOver(j.idx, send)
				} else {
					send()
				}
			}
		}()
	}

	dispatched := 0
	dispatch := func() job {
		cfg := p.Dist.Sample(p.rng.Rand)
		if p.rng.Float64() < 0.5 {
			cfg.PoissonArrivals(p.rng.Rand, 2.0)
		}
		j := job{
			idx: dispatched, cfg: cfg, seed: p.rng.Int63(),
			policy: &core.MLPPolicy{Net: p.Trainer.Actor.Clone()},
		}
		dispatched++
		return j
	}

	// Prime one job per worker, then dispatch one more each time an outcome
	// is applied. A learner that was stopped (and not reset) dispatches
	// nothing. At most Workers episodes are outstanding, so an early
	// finisher waits in held at its dispatch index mod Workers until every
	// episode dispatched before it has been applied. When an episode's
	// updates outlast a rollout, the next episode due has almost always
	// finished by the time it is wanted.
	for dispatched < p.Workers && dispatched < episodes && !p.stopped.Load() {
		jobs <- dispatch()
	}
	held := make([]*episodeOutcome, p.Workers)
	for applied := 0; applied < dispatched; applied++ {
		slot := applied % p.Workers
		for held[slot] == nil {
			out := <-outcomes
			held[out.idx%p.Workers] = &out
		}
		out := held[slot]
		held[slot] = nil
		p.Episodes++
		p.RewardHistory = append(p.RewardHistory, out.result.AvgReward)
		p.mEpisodes.Inc()
		p.mReward.Set(out.result.AvgReward)
		for _, tr := range out.transitions {
			p.Replay.Add(tr)
		}
		rounds := int(out.result.Duration / p.Cfg.ModelUpdateInterval)
		if rounds < 1 {
			rounds = 1
		}
		for r := 0; r < rounds; r++ {
			for s := 0; s < p.Cfg.ModelUpdateSteps; s++ {
				p.Trainer.Update(p.Replay)
			}
		}
		if p.AfterEpisode != nil {
			p.AfterEpisode(p.Episodes)
		}
		if dispatched < episodes && !p.stopped.Load() {
			jobs <- dispatch()
		}
	}
	close(jobs)
	wg.Wait()
	return p.RewardHistory
}

// Stop makes the current (or next) Train call return early: no new episodes
// are dispatched, episodes already running drain normally and still feed
// the replay buffer and update schedule. Safe from any goroutine, including
// the AfterEpisode hook itself. Stop is sticky until ResetStop.
func (p *ParallelLearner) Stop() { p.stopped.Store(true) }

// ResetStop clears a previous Stop so Train can be called again.
func (p *ParallelLearner) ResetStop() { p.stopped.Store(false) }

// SnapshotActor clones the current actor into a standalone deployable
// policy — the candidate the pilot hands to the regression gate. It must
// only be called from the goroutine that owns the networks: outside Train,
// or inside the AfterEpisode hook.
func (p *ParallelLearner) SnapshotActor() *core.MLPPolicy {
	return &core.MLPPolicy{Net: p.Trainer.Actor.Clone()}
}

// Policy returns the current actor wrapped for deployment.
func (p *ParallelLearner) Policy() *core.MLPPolicy {
	return &core.MLPPolicy{Net: p.Trainer.Actor}
}
