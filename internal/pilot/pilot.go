// Package pilot closes the learning loop: it supervises continuous
// training, gates candidate policies against the serving incumbent, and
// promotes survivors into the live fleet with instant rollback on
// regression. The state machine per round:
//
//	train N episodes ──► snapshot candidate ──► regression gate
//	     ▲                                          │pass        │fail
//	     │                                          ▼            │
//	     │                                   seal + promote      │
//	     │                                          │            │
//	     │                                    probation watch    │
//	     │                                     │healthy │regressed
//	     └─────────────────────────────────────┴────────┤
//	                                                    ▼
//	                                           rollback to parent
//
// Training runs on env.ParallelLearner (N parallel environment instances)
// with periodic atomic checkpoints and bounded rotation. The gate replays
// candidate and incumbent through the fixed tournament scenario suite and
// refuses any candidate below the utilization/fairness/delay floors
// (internal/tournament.RunGate). Promotion seals the candidate into a
// CRC-guarded generation artifact (internal/core.SaveSealedPolicy), records
// it in the generation store, and hot-swaps it through the serve reload
// path — zero dropped requests, quantize-on-promote. After promotion the
// fleet's own degradation telemetry is watched for a probation window; a
// regression rolls the manifest and the fleet back to the parent
// generation, which is still sealed on disk. Every decision is observable:
// pilot_generation, pilot_promotions_total, pilot_rollbacks_total,
// pilot_gate_failures_total.
package pilot

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/telemetry"
	"repro/internal/tournament"
)

// Options configures a Supervisor.
type Options struct {
	// Store is the generation store (required).
	Store *Store
	// Learner is the training loop (required). The supervisor owns it for
	// the duration of Run: it installs the AfterEpisode checkpoint hook.
	Learner *env.ParallelLearner
	// Target is the serving fleet (required).
	Target Target
	// Boot, when the store is empty, is sealed as the first generation and
	// promoted before training starts — it must be the policy the fleet is
	// serving now, so rollback always has a sealed artifact to land on.
	// Nil defaults to a snapshot of the learner's current actor.
	Boot *core.MLPPolicy
	// EpisodesPerRound is the gate cadence: episodes trained between
	// candidate evaluations (default 25).
	EpisodesPerRound int
	// Rounds is how many gate evaluations to run (default 1).
	Rounds int
	// Gate parameterizes the regression suite; zero value = defaults.
	Gate tournament.GateConfig
	// Health is the probation rule; zero value = DefaultHealthPolicy.
	Health HealthPolicy
	// CheckpointPath, when set, makes training crash-safe: the learner
	// state is checkpointed there every CheckpointEvery episodes (default
	// 25), with CheckpointKeep rotated copies; the copy behind each
	// promoted generation is pinned so rotation never deletes the promoted
	// lineage.
	CheckpointPath  string
	CheckpointEvery int
	CheckpointKeep  int
	// Registry receives pilot telemetry; nil disables.
	Registry *telemetry.Registry
	// Logf receives progress lines; nil discards.
	Logf func(format string, args ...any)
	// nowUnix is the clock for artifact metadata (tests inject; nil uses
	// time.Now).
	nowUnix func() int64
}

// Supervisor drives the closed loop. Build with New, run with Run.
type Supervisor struct {
	o Options

	// Telemetry (nil-safe when uninstrumented).
	gGeneration *telemetry.Gauge
	mRounds     *telemetry.Counter
	mGateFails  *telemetry.Counter
	mPromotions *telemetry.Counter
	mRollbacks  *telemetry.Counter
	mPromoteErr *telemetry.Counter
}

// New validates opts and builds a supervisor.
func New(opts Options) (*Supervisor, error) {
	if opts.Store == nil || opts.Learner == nil || opts.Target == nil {
		return nil, fmt.Errorf("pilot: Store, Learner, and Target are all required")
	}
	if opts.EpisodesPerRound <= 0 {
		opts.EpisodesPerRound = 25
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 1
	}
	if opts.Health == (HealthPolicy{}) {
		opts.Health = DefaultHealthPolicy()
	}
	if err := opts.Health.validate(); err != nil {
		return nil, err
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 25
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.nowUnix == nil {
		opts.nowUnix = func() int64 { return time.Now().Unix() }
	}
	s := &Supervisor{o: opts}
	if reg := opts.Registry; reg != nil {
		s.gGeneration = reg.Gauge("pilot_generation", "generation currently promoted to the fleet")
		s.mRounds = reg.Counter("pilot_rounds_total", "training rounds completed")
		s.mGateFails = reg.Counter("pilot_gate_failures_total", "candidates refused by the regression gate")
		s.mPromotions = reg.Counter("pilot_promotions_total", "generations promoted to the fleet")
		s.mRollbacks = reg.Counter("pilot_rollbacks_total", "health-triggered rollbacks")
		s.mPromoteErr = reg.Counter("pilot_promote_errors_total", "promotions refused by the serving fleet")
	}
	return s, nil
}

// Run executes the closed loop: Rounds iterations of train → gate →
// promote → probation. Returns on completion, on ctx cancellation (the
// in-flight training round drains first), or on an unrecoverable error —
// gate refusals and health rollbacks are normal operation, not errors.
func (s *Supervisor) Run(ctx context.Context) error {
	o := s.o
	if err := s.ensureBoot(); err != nil {
		return err
	}
	s.installCheckpointHook(ctx)
	defer func() { o.Learner.AfterEpisode = nil }()

	for round := 1; round <= o.Rounds; round++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		o.Learner.Train(o.EpisodesPerRound)
		s.mRounds.Inc()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		candidate := o.Learner.SnapshotActor()
		incumbent, err := s.incumbentPolicy()
		if err != nil {
			return err
		}
		rep, err := tournament.RunGate(candidate, incumbent, o.Gate)
		if err != nil {
			return fmt.Errorf("pilot: gate: %w", err)
		}
		if !rep.Pass {
			s.mGateFails.Inc()
			o.Logf("round %d: gate refused candidate at episode %d: %v",
				round, o.Learner.Episodes, rep.Reasons)
			continue
		}
		o.Logf("round %d: gate passed (candidate score %.4f vs incumbent %.4f)",
			round, rep.Candidate.Score, rep.Incumbent.Score)

		g, err := s.promote(candidate, fmt.Sprintf("round %d gate %.4f vs %.4f",
			round, rep.Candidate.Score, rep.Incumbent.Score))
		if err != nil {
			// The fleet refused the artifact: the incumbent is still
			// serving. Repair the manifest and keep training.
			s.mPromoteErr.Inc()
			o.Logf("round %d: promotion refused: %v", round, err)
			if _, _, rbErr := o.Store.Rollback(); rbErr != nil {
				return rbErr
			}
			continue
		}
		o.Logf("round %d: promoted generation %d (episode %d)", round, g.Gen, o.Learner.Episodes)

		if s.probation(ctx) {
			if err := s.rollback(g); err != nil {
				return err
			}
		}
	}
	return nil
}

// ensureBoot seals and promotes the boot policy when the store is empty, so
// the lineage starts at a generation whose artifact is on disk and every
// later rollback has a landing place.
func (s *Supervisor) ensureBoot() error {
	if cur, ok := s.o.Store.Current(); ok {
		s.gGeneration.Set(float64(cur.Gen))
		return nil
	}
	boot := s.o.Boot
	if boot == nil {
		boot = s.o.Learner.SnapshotActor()
	}
	g, err := s.o.Store.Commit(boot.Net, core.PolicyMeta{
		Reward: s.o.Learner.Cfg.RewardName(), Note: "boot baseline",
	}, s.o.nowUnix())
	if err != nil {
		return err
	}
	if err := s.o.Target.Promote(s.o.Store.Path(g), core.PolicyMeta{Generation: g.Gen}); err != nil {
		return fmt.Errorf("pilot: boot promotion: %w", err)
	}
	s.mPromotions.Inc()
	s.gGeneration.Set(float64(g.Gen))
	s.o.Logf("sealed boot baseline as generation %d", g.Gen)
	return nil
}

// incumbentPolicy loads the serving generation's sealed actor (float form —
// the gate compares like against like; quantization happens at promotion).
func (s *Supervisor) incumbentPolicy() (*core.MLPPolicy, error) {
	cur, ok := s.o.Store.Current()
	if !ok {
		return nil, fmt.Errorf("pilot: no serving generation")
	}
	p, _, err := core.LoadPolicy(s.o.Store.Path(cur), s.o.Learner.Cfg)
	return p, err
}

// promote seals the candidate as the next generation, publishes it to the
// fleet, and pins the training checkpoint that produced it.
func (s *Supervisor) promote(candidate *core.MLPPolicy, note string) (Generation, error) {
	o := s.o
	g, err := o.Store.Commit(candidate.Net, core.PolicyMeta{
		Reward:   o.Learner.Cfg.RewardName(),
		Episodes: o.Learner.Episodes,
		Note:     note,
	}, o.nowUnix())
	if err != nil {
		return Generation{}, err
	}
	if err := o.Target.Promote(o.Store.Path(g), core.PolicyMeta{Generation: g.Gen, Parent: g.Parent}); err != nil {
		return Generation{}, err
	}
	if o.CheckpointPath != "" {
		// Pin the checkpoint series member behind this promotion so
		// rotation keeps the state an operator would resume from.
		member := ckpt.SeriesName(o.CheckpointPath, o.Learner.Episodes)
		if err := o.Learner.SaveCheckpoint(member); err != nil {
			return Generation{}, err
		}
		if err := ckpt.WritePin(o.CheckpointPath, member); err != nil {
			return Generation{}, err
		}
	}
	s.mPromotions.Inc()
	s.gGeneration.Set(float64(g.Gen))
	return g, nil
}

// probation watches the fleet's degradation counters for the health
// window; true means the new generation regressed and must be rolled back.
// Each interval is judged independently against the previous sample, so a
// regression surfaces within roughly one interval plus MinRequests of
// traffic. Health read errors end the watch inconclusively (healthy): a
// scrape outage must not trigger a policy rollback.
func (s *Supervisor) probation(ctx context.Context) bool {
	hp := s.o.Health
	if hp.ProbationSeconds <= 0 {
		return false
	}
	interval := time.Duration(hp.IntervalSeconds * float64(time.Second))
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	before, err := s.o.Target.Health()
	if err != nil {
		return false
	}
	deadline := time.Now().Add(time.Duration(hp.ProbationSeconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(interval):
		}
		after, err := s.o.Target.Health()
		if err != nil {
			return false
		}
		if hp.Regressed(before, after) {
			s.o.Logf("health regression: %+v -> %+v", before, after)
			return true
		}
		before = after
	}
	return false
}

// rollback restores the evicted generation's parent on disk and on the
// fleet — the parent's sealed artifact is re-published through the same
// promotion path, so the swap is as safe as the one it undoes.
func (s *Supervisor) rollback(bad Generation) error {
	prev, ok, err := s.o.Store.Rollback()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("pilot: generation %d regressed but has no parent artifact to roll back to", bad.Gen)
	}
	if err := s.o.Target.Promote(s.o.Store.Path(prev), core.PolicyMeta{Generation: prev.Gen, Parent: prev.Parent}); err != nil {
		return fmt.Errorf("pilot: rollback to generation %d: %w", prev.Gen, err)
	}
	s.mRollbacks.Inc()
	s.gGeneration.Set(float64(prev.Gen))
	s.o.Logf("rolled back generation %d -> %d", bad.Gen, prev.Gen)
	return nil
}

// installCheckpointHook wires periodic crash-safe checkpointing (and ctx
// cancellation) into the training loop's per-episode hook.
func (s *Supervisor) installCheckpointHook(ctx context.Context) {
	o := s.o
	o.Learner.AfterEpisode = func(episodes int) {
		if ctx.Err() != nil {
			o.Learner.Stop()
			return
		}
		if o.CheckpointPath == "" || episodes%o.CheckpointEvery != 0 {
			return
		}
		if err := o.Learner.SaveCheckpoint(o.CheckpointPath); err != nil {
			o.Logf("checkpoint: %v", err)
			return
		}
		if o.CheckpointKeep > 0 {
			member := ckpt.SeriesName(o.CheckpointPath, episodes)
			if err := o.Learner.SaveCheckpoint(member); err != nil {
				o.Logf("checkpoint series: %v", err)
				return
			}
			if _, err := ckpt.PruneSeries(o.CheckpointPath, o.CheckpointKeep, ckpt.ReadPin(o.CheckpointPath)); err != nil {
				o.Logf("checkpoint prune: %v", err)
			}
		}
	}
}
