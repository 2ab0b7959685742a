// Crash-safe training checkpoints (the durable half of the §3.4 training
// loop). SaveCheckpoint captures everything that determines the learner's
// future behaviour — networks with optimizer state, the replay ring, the
// episode/update counters, the reward history, and the episode-sampling RNG
// — so that LoadLearner in a fresh process continues the exact training
// trajectory: N episodes, a checkpoint, a restart, and N more episodes
// produce actor weights bitwise-identical to an uninterrupted 2N-episode
// run. That guarantee holds for the serial Learner. ParallelLearner applies
// episodes in dispatch order, so an uninterrupted parallel run is
// deterministic for a fixed worker count, but the episodes in flight at a
// checkpoint were dispatched against earlier actors and are not captured:
// its checkpoints (same on-disk format, see parallel.go) resume the
// trajectory statistically, not bitwise.

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

// learnerState is the decoded content of a training checkpoint — the fields
// shared by the serial Learner and the ParallelLearner, in their on-disk
// order. Both learner kinds encode to and decode from this one layout, so a
// checkpoint written by either can seed either (a serial run can hand off
// to a parallel pilot and vice versa).
type learnerState struct {
	Cfg           core.Config
	Dist          TrainingDistribution
	Trainer       *rl.Trainer
	Replay        *rl.ReplayBuffer
	Episodes      int
	RewardHistory []float64
	RngHi, RngLo  uint64
}

// encodeLearnerState appends the shared checkpoint payload to e.
func encodeLearnerState(e *ckpt.Encoder, s *learnerState) error {
	cfgJSON, err := json.Marshal(s.Cfg)
	if err != nil {
		return fmt.Errorf("env: marshal config: %w", err)
	}
	distJSON, err := json.Marshal(s.Dist)
	if err != nil {
		return fmt.Errorf("env: marshal training distribution: %w", err)
	}
	e.Bytes(cfgJSON)
	e.Bytes(distJSON)
	// The reward-strategy identity is recorded explicitly (not only inside
	// the config JSON) so decoding can refuse a strategy mismatch with a
	// first-class error before any training state is interpreted: a learner
	// trained under one objective must never silently resume under another.
	e.Bytes([]byte(s.Cfg.RewardName()))
	s.Trainer.Encode(e)
	s.Replay.Encode(e)
	e.Int(s.Episodes)
	e.Float64s(s.RewardHistory)
	e.Uint64(s.RngHi)
	e.Uint64(s.RngLo)
	return nil
}

// decodeLearnerState parses and validates the shared checkpoint payload. A
// structurally invalid payload fails with a field-level error rather than
// yielding partial state.
func decodeLearnerState(payload []byte) (*learnerState, error) {
	d := ckpt.NewDecoder(payload)
	cfgJSON := d.Bytes()
	distJSON := d.Bytes()
	strategyName := string(d.Bytes())
	if err := d.Err(); err != nil {
		return nil, err
	}
	s := &learnerState{}
	if err := json.Unmarshal(cfgJSON, &s.Cfg); err != nil {
		return nil, fmt.Errorf("env: checkpoint config: %w", err)
	}
	if err := json.Unmarshal(distJSON, &s.Dist); err != nil {
		return nil, fmt.Errorf("env: checkpoint training distribution: %w", err)
	}
	// Strategy identity: the recorded name must resolve to a registered
	// strategy and agree with the config it rode in with. Either failure is
	// a refusal, not a fallback — resuming under a different objective
	// would silently re-point the critic at a different reward surface.
	if _, err := core.NewRewardStrategy(strategyName); err != nil {
		return nil, fmt.Errorf("env: checkpoint reward strategy: %w", err)
	}
	if got := s.Cfg.RewardName(); got != strategyName {
		return nil, fmt.Errorf("env: checkpoint trained under reward strategy %q but its config says %q — refusing to resume",
			strategyName, got)
	}
	trainer, err := rl.DecodeTrainer(d)
	if err != nil {
		return nil, fmt.Errorf("env: checkpoint trainer: %w", err)
	}
	if trainer.Cfg.StateDim != s.Cfg.StateDim() {
		return nil, fmt.Errorf("env: checkpoint actor input %d does not match config state dim %d",
			trainer.Cfg.StateDim, s.Cfg.StateDim())
	}
	s.Trainer = trainer
	s.Replay, err = rl.DecodeReplayBuffer(d)
	if err != nil {
		return nil, fmt.Errorf("env: checkpoint replay: %w", err)
	}
	s.Episodes = d.Int()
	s.RewardHistory = d.Float64s()
	s.RngHi, s.RngLo = d.Uint64(), d.Uint64()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if s.Episodes < 0 || len(s.RewardHistory) != s.Episodes {
		return nil, fmt.Errorf("env: checkpoint has %d episodes but %d reward entries",
			s.Episodes, len(s.RewardHistory))
	}
	return s, nil
}

// SaveCheckpoint writes the learner's complete state to path atomically:
// the file either keeps its previous contents or holds the new checkpoint,
// even across kill -9. Telemetry (ckpt_last_write_seconds,
// ckpt_bytes_written_total) is updated when Instrument was called.
func (l *Learner) SaveCheckpoint(path string) error {
	start := time.Now()
	e := &ckpt.Encoder{}
	hi, lo := l.rng.State()
	if err := encodeLearnerState(e, &learnerState{
		Cfg: l.Cfg, Dist: l.Dist, Trainer: l.Trainer, Replay: l.Replay,
		Episodes: l.Episodes, RewardHistory: l.RewardHistory, RngHi: hi, RngLo: lo,
	}); err != nil {
		return err
	}
	n, err := ckpt.WriteFile(path, e.Payload())
	if err != nil {
		return err
	}
	l.mCkptSecs.Set(time.Since(start).Seconds())
	l.mCkptByte.Add(int64(n))
	return nil
}

// LoadLearner restores a learner from a checkpoint written by
// SaveCheckpoint. A truncated or corrupted file is rejected outright (CRC
// validation happens before any field is decoded).
func LoadLearner(path string) (*Learner, error) {
	payload, err := ckpt.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decodeLearnerState(payload)
	if err != nil {
		return nil, err
	}
	l := &Learner{
		Cfg:           s.Cfg,
		Dist:          s.Dist,
		Trainer:       s.Trainer,
		Replay:        s.Replay,
		rng:           rng.New(0),
		Episodes:      s.Episodes,
		RewardHistory: s.RewardHistory,
	}
	l.rng.SetState(s.RngHi, s.RngLo)
	return l, nil
}
