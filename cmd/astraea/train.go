package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/telemetry"
)

// cmdTrain runs the offline multi-agent training pipeline (§3.4) and
// writes the learned actor as JSON weights loadable by core.LoadPolicy.
// -mode distill instead fits the actor to the reference policy, which is
// how the repository's default deployable neural model is produced quickly.
//
//	astraea train -mode rl -episodes 50 -out actor.json
//	astraea train -mode distill -out distilled.json
//	astraea train -mode rl -episodes 500 -pprof 127.0.0.1:6060 -telemetry train.prom
//	astraea train -mode rl -episodes 5000 -checkpoint train.ckpt -checkpoint-every 25
//	astraea train -mode rl -episodes 5000 -resume train.ckpt -checkpoint train.ckpt
//
// Long runs are watched for convergence (rl_critic_loss,
// env_episode_reward) and overhead on -pprof's live /metrics.
//
// -checkpoint writes a crash-safe snapshot of the complete training state
// (networks, Adam moments, replay buffer, RNG) every -checkpoint-every
// episodes; -resume restores one and continues toward -episodes total.
// Checkpoints are written atomically, so a crash — even kill -9 — between
// or during writes never leaves a corrupt file at the configured path.
// Resumed training is bitwise-deterministic, which requires one environment
// instance: -checkpoint/-resume run one worker regardless of -workers. Every
// run, checkpointed or not, is one ParallelLearner.Train call; a progress
// line is printed after each episode's updates.
func cmdTrain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("train", stderr)
	mode := fs.String("mode", "distill", "rl (multi-agent TD3) or distill (supervised imitation)")
	episodes := fs.Int("episodes", 20, "training episodes (rl mode)")
	workers := fs.Int("workers", 4, "parallel environment instances (rl mode; paper uses 4)")
	samples := fs.Int("samples", 20000, "training samples (distill mode)")
	epochs := fs.Int("epochs", 30, "epochs (distill mode)")
	out := fs.String("out", "actor.json", "output weight file")
	seed := fs.Int64("seed", 1, "random seed")
	reward := fs.String("reward", "", "reward strategy: paper (default), aurora, maxmin, alpha[:a] (e.g. alpha:2)")
	checkpoint := fs.String("checkpoint", "", "write crash-safe training checkpoints to this path (rl mode; one worker)")
	checkpointEvery := fs.Int("checkpoint-every", 25, "episodes between checkpoint writes when -checkpoint is set")
	checkpointKeep := fs.Int("checkpoint-keep", 0,
		"rotate episode-numbered checkpoint copies (<path>.<episodes>), keeping the newest N plus the last promoted one (0 = single file, no series)")
	resume := fs.String("resume", "", "resume rl training from this checkpoint and continue toward -episodes total")
	obs := addObservability(fs)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if *mode != "rl" && *mode != "distill" {
		return usageError(fs, "unknown mode %q (want rl or distill)", *mode)
	}
	strategy, err := core.NewRewardStrategy(*reward)
	if err != nil {
		return usageError(fs, "%v (known strategies: %v)", err, core.RewardStrategyNames())
	}
	cfg := core.DefaultConfig()
	cfg.Reward = strategy.Name()

	reg, stop, err := obs.start()
	if err != nil {
		return failed(fs, err)
	}
	defer stop()

	if *mode == "rl" {
		rewardSet := false
		fs.Visit(func(f *flag.Flag) { rewardSet = rewardSet || f.Name == "reward" })
		if err := trainRL(cfg, reg, stdout, stderr, *episodes, *workers, *seed,
			*checkpoint, *checkpointEvery, *checkpointKeep, *resume, *out, rewardSet); err != nil {
			return failed(fs, err)
		}
	} else {
		opts := core.DefaultDistillOptions()
		opts.Samples = *samples
		opts.Epochs = *epochs
		opts.Seed = *seed
		opts.Reward = cfg.Reward
		net, loss := core.DistillPolicy(cfg, opts)
		fmt.Fprintf(stdout, "distilled reference policy: imitation MSE = %.6f\n", loss)
		if err := core.SavePolicy(*out, net); err != nil {
			return failed(fs, err)
		}
	}
	if err := obs.snapshot(reg); err != nil {
		return failed(fs, err)
	}
	fmt.Fprintln(stdout, "wrote", *out)
	return 0
}

// trainRL runs the rl training loop on one learner, new or resumed from a
// checkpoint, and writes the actor to out. A progress line and, with
// ckptPath set, a crash-safe checkpoint every `every` episodes come from
// the learner's AfterEpisode hook; the final state is checkpointed once
// more at the end. With -resume, training continues from the saved episode
// count toward the -episodes total. Checkpointed runs use one worker, so
// the resumed trajectory is bitwise-identical to an uninterrupted run of
// the same length.
func trainRL(cfg core.Config, reg *telemetry.Registry, stdout, stderr io.Writer,
	episodes, workers int, seed int64, ckptPath string, every, keep int, resume, out string,
	rewardSet bool) error {

	if ckptPath != "" || resume != "" {
		if workers > 1 {
			fmt.Fprintln(stderr, "astraea train: checkpointed training is serial for determinism; ignoring -workers")
		}
		workers = 1
	}
	every = max(every, 1)
	var learner *env.ParallelLearner
	if resume != "" {
		l, err := env.LoadParallelLearner(resume, workers)
		if err != nil {
			return err
		}
		if rewardSet && l.StrategyName() != cfg.RewardName() {
			return fmt.Errorf("checkpoint %s was trained under reward strategy %q; -reward %q would change the objective mid-run — refusing to resume",
				resume, l.StrategyName(), cfg.RewardName())
		}
		learner = l
		fmt.Fprintf(stderr, "astraea train: resumed from %s at episode %d (strategy %s)\n",
			resume, learner.Episodes, learner.StrategyName())
	} else {
		learner = env.NewParallelLearner(cfg, env.DefaultTrainingDistribution(), seed, workers)
	}
	learner.Instrument(reg)
	save := func() error {
		if ckptPath == "" {
			return nil
		}
		if err := learner.SaveCheckpoint(ckptPath); err != nil {
			return err
		}
		if keep > 0 {
			// Rotated series: an episode-numbered copy beside the resume
			// target, then prune — newest -checkpoint-keep members survive,
			// plus the one pinned by a promotion (<path>.promoted).
			member := ckpt.SeriesName(ckptPath, learner.Episodes)
			if err := learner.SaveCheckpoint(member); err != nil {
				return err
			}
			if _, err := ckpt.PruneSeries(ckptPath, keep, ckpt.ReadPin(ckptPath)); err != nil {
				return err
			}
		}
		fmt.Fprintf(stderr, "astraea train: checkpointed episode %d to %s\n", learner.Episodes, ckptPath)
		return nil
	}
	var saveErr error
	learner.AfterEpisode = func(done int) {
		last := learner.RewardHistory[done-1]
		fmt.Fprintf(stdout, "episodes %3d/%d: reward=%+.5f criticLoss=%.5f replay=%d\n",
			done, episodes, last, learner.Trainer.LastCriticLoss, learner.Replay.Len())
		if done%every == 0 && done < episodes {
			if saveErr = save(); saveErr != nil {
				learner.Stop()
			}
		}
	}
	learner.Train(episodes - learner.Episodes)
	if saveErr != nil {
		return saveErr
	}
	if err := save(); err != nil {
		return err
	}
	return core.SavePolicy(out, learner.Trainer.Actor)
}
