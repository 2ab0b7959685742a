// Crash-safe training checkpoints (the durable half of the §3.4 training
// loop). SaveCheckpoint captures everything that determines the learner's
// future behaviour — networks with optimizer state, the replay ring, the
// episode/update counters, the reward history, and the episode-sampling RNG
// — so that LoadParallelLearner in a fresh process continues the exact
// training trajectory: with one worker, N episodes, a checkpoint, a
// restart, and N more episodes produce actor weights bitwise-identical to
// an uninterrupted 2N-episode run. Episodes are applied in dispatch order,
// so an uninterrupted run with more workers is deterministic for a fixed
// worker count too, but the episodes in flight at a checkpoint were
// dispatched against earlier actors and are not captured: such a run
// resumes the trajectory statistically, not bitwise.

package env

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/rng"
)

// SaveCheckpoint writes the learner's complete state to path atomically:
// the file either keeps its previous contents or holds the new checkpoint,
// even across kill -9. Telemetry (ckpt_last_write_seconds,
// ckpt_bytes_written_total) is updated when Instrument was called. Must be
// called from the goroutine that owns the networks: outside Train, or
// inside AfterEpisode.
func (p *ParallelLearner) SaveCheckpoint(path string) error {
	start := time.Now()
	cfgJSON, err := json.Marshal(p.Cfg)
	if err != nil {
		return fmt.Errorf("env: marshal config: %w", err)
	}
	distJSON, err := json.Marshal(p.Dist)
	if err != nil {
		return fmt.Errorf("env: marshal training distribution: %w", err)
	}
	e := &ckpt.Encoder{}
	e.Bytes(cfgJSON)
	e.Bytes(distJSON)
	// The reward-strategy identity is recorded explicitly (not only inside
	// the config JSON) so decoding can refuse a strategy mismatch with a
	// first-class error before any training state is interpreted: a learner
	// trained under one objective must never silently resume under another.
	e.Bytes([]byte(p.Cfg.RewardName()))
	p.Trainer.Encode(e)
	p.Replay.Encode(e)
	e.Int(p.Episodes)
	e.Float64s(p.RewardHistory)
	hi, lo := p.rng.State()
	e.Uint64(hi)
	e.Uint64(lo)
	n, err := ckpt.WriteFile(path, e.Payload())
	if err != nil {
		return err
	}
	p.mCkptSecs.Set(time.Since(start).Seconds())
	p.mCkptByte.Add(int64(n))
	return nil
}

// LoadParallelLearner restores a learner with the given worker count
// (minimum 1) from a checkpoint written by SaveCheckpoint. A truncated or
// corrupted file is rejected outright (CRC validation happens before any
// field is decoded), and a structurally invalid payload fails with a
// field-level error rather than yielding partial state.
func LoadParallelLearner(path string, workers int) (*ParallelLearner, error) {
	payload, err := ckpt.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := ckpt.NewDecoder(payload)
	cfgJSON := d.Bytes()
	distJSON := d.Bytes()
	strategyName := string(d.Bytes())
	if err := d.Err(); err != nil {
		return nil, err
	}
	p := &ParallelLearner{Workers: max(workers, 1), rng: rng.New(0)}
	if err := json.Unmarshal(cfgJSON, &p.Cfg); err != nil {
		return nil, fmt.Errorf("env: checkpoint config: %w", err)
	}
	if err := json.Unmarshal(distJSON, &p.Dist); err != nil {
		return nil, fmt.Errorf("env: checkpoint training distribution: %w", err)
	}
	// Strategy identity: the recorded name must resolve to a registered
	// strategy and agree with the config it rode in with. Either failure is
	// a refusal, not a fallback — resuming under a different objective
	// would silently re-point the critic at a different reward surface.
	if _, err := core.NewRewardStrategy(strategyName); err != nil {
		return nil, fmt.Errorf("env: checkpoint reward strategy: %w", err)
	}
	if got := p.Cfg.RewardName(); got != strategyName {
		return nil, fmt.Errorf("env: checkpoint trained under reward strategy %q but its config says %q — refusing to resume",
			strategyName, got)
	}
	trainer, err := rl.DecodeTrainer(d)
	if err != nil {
		return nil, fmt.Errorf("env: checkpoint trainer: %w", err)
	}
	if trainer.Cfg.StateDim != p.Cfg.StateDim() {
		return nil, fmt.Errorf("env: checkpoint actor input %d does not match config state dim %d",
			trainer.Cfg.StateDim, p.Cfg.StateDim())
	}
	p.Trainer = trainer
	p.Replay, err = rl.DecodeReplayBuffer(d)
	if err != nil {
		return nil, fmt.Errorf("env: checkpoint replay: %w", err)
	}
	// The config JSON omits these two; the trainer and replay records hold them.
	p.Cfg.Hidden = trainer.Cfg.Hidden
	p.Cfg.ReplayCap = p.Replay.Cap()
	p.Episodes = d.Int()
	p.RewardHistory = d.Float64s()
	p.rng.SetState(d.Uint64(), d.Uint64())
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if p.Episodes < 0 || len(p.RewardHistory) != p.Episodes {
		return nil, fmt.Errorf("env: checkpoint has %d episodes but %d reward entries",
			p.Episodes, len(p.RewardHistory))
	}
	return p, nil
}
