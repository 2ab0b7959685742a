package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

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
	tf := addTrainingFlags(fs)
	samples := fs.Int("samples", 20000, "training samples (distill mode)")
	epochs := fs.Int("epochs", 30, "epochs (distill mode)")
	out := fs.String("out", "actor.json", "output weight file")
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
	cfg, dist, err := tf.config()
	if err != nil {
		return usageError(fs, "%v", err)
	}

	reg, stop, err := obs.start()
	if err != nil {
		return failed(fs, err)
	}
	defer stop()

	if *mode == "rl" {
		if err := trainRL(tf, cfg, dist, reg, stdout, stderr, *episodes,
			*checkpoint, *checkpointEvery, *checkpointKeep, *resume, *out); err != nil {
			return failed(fs, err)
		}
	} else {
		opts := core.DefaultDistillOptions()
		opts.Samples, opts.Epochs, opts.Seed = *samples, *epochs, tf.seed
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

// trainRL runs the rl training loop on one learner, new or resumed, and
// writes the actor to out. Progress lines and, with ckptPath set, a
// checkpoint every `every` episodes come from the AfterEpisode hook; the
// final state is checkpointed once more at the end.
func trainRL(tf *trainingFlags, cfg core.Config, dist env.TrainingDistribution, reg *telemetry.Registry,
	stdout, stderr io.Writer, episodes int, ckptPath string, every, keep int, resume, out string) error {
	workers := tf.workers
	if ckptPath != "" || resume != "" {
		if workers > 1 {
			fmt.Fprintln(stderr, "astraea train: checkpointed training is serial for determinism; ignoring -workers")
		}
		workers = 1
	}
	every = max(every, 1)
	learner, err := tf.learner(resume, workers, cfg, dist)
	if err != nil {
		return err
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

// trainingFlags are the training settings train and pilot share. A resumed
// learner keeps its checkpoint's settings (see learner).
type trainingFlags struct {
	fs                *flag.FlagSet
	reward, hidden    string
	seed              int64
	workers, maxFlows int
	episodeDuration   float64
}

func addTrainingFlags(fs *flag.FlagSet) *trainingFlags {
	t, dist := &trainingFlags{fs: fs}, env.DefaultTrainingDistribution()
	fs.StringVar(&t.reward, "reward", "paper", "reward strategy: paper, aurora, maxmin, alpha[:a] (e.g. alpha:2)")
	fs.Int64Var(&t.seed, "seed", 1, "random seed")
	fs.IntVar(&t.workers, "workers", 4, "parallel environment instances (paper uses 4; pilot's gate replays use as many)")
	fs.StringVar(&t.hidden, "rl-hidden", widths(core.DefaultConfig().Hidden), "actor/critic hidden sizes as a comma list")
	fs.Float64Var(&t.episodeDuration, "episode-duration", dist.EpisodeDuration, "seconds simulated per training episode")
	fs.IntVar(&t.maxFlows, "max-flows", dist.MaxFlows, "cap on flows per training episode")
	return t
}

// config resolves the flags into a learner configuration and a training
// distribution. An error is a usage error.
func (t *trainingFlags) config() (core.Config, env.TrainingDistribution, error) {
	cfg, dist := core.DefaultConfig(), env.DefaultTrainingDistribution()
	strategy, err := core.NewRewardStrategy(t.reward)
	if err != nil {
		return cfg, dist, fmt.Errorf("%v (known strategies: %v)", err, core.RewardStrategyNames())
	}
	cfg.Reward = strategy.Name()
	if parts := splitList(t.hidden); len(parts) > 0 {
		cfg.Hidden = make([]int, len(parts))
		for i, part := range parts {
			if cfg.Hidden[i], err = strconv.Atoi(part); err != nil || cfg.Hidden[i] < 1 {
				return cfg, dist, fmt.Errorf("bad -rl-hidden entry %q", part)
			}
		}
	}
	if !(t.episodeDuration > 0) || t.maxFlows < 1 {
		return cfg, dist, fmt.Errorf("-episode-duration must be positive and -max-flows at least 1")
	}
	dist.EpisodeDuration, dist.MaxFlows = t.episodeDuration, t.maxFlows
	dist.MinFlows = min(dist.MinFlows, t.maxFlows)
	return cfg, dist, nil
}

// learner builds a learner on cfg and dist or, with path set, resumes that
// checkpoint: a compared flag the user set that resolves (in cfg and dist)
// to another value than the checkpoint's is refused by name.
func (t *trainingFlags) learner(path string, workers int, cfg core.Config, dist env.TrainingDistribution) (*env.ParallelLearner, error) {
	if path == "" {
		return env.NewParallelLearner(cfg, dist, t.seed, workers), nil
	}
	l, err := env.LoadParallelLearner(path, workers)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	t.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, c := range []struct{ flag, got, saved string }{
		{"reward", cfg.RewardName(), l.StrategyName()},
		{"rl-hidden", widths(cfg.Hidden), widths(l.Cfg.Hidden)},
		{"episode-duration", fmt.Sprint(dist.EpisodeDuration), fmt.Sprint(l.Dist.EpisodeDuration)},
		{"max-flows", fmt.Sprint(dist.MaxFlows), fmt.Sprint(l.Dist.MaxFlows)},
	} {
		if set[c.flag] && c.got != c.saved {
			return nil, fmt.Errorf("checkpoint %s was trained with -%s %s; -%s %s would change it mid-run — refusing to resume",
				path, c.flag, c.saved, c.flag, c.got)
		}
	}
	fmt.Fprintf(t.fs.Output(), "%s: resumed from %s at episode %d (strategy %s)\n",
		t.fs.Name(), path, l.Episodes, l.StrategyName())
	return l, nil
}

// widths formats hidden-layer sizes the way -rl-hidden takes them.
func widths(h []int) string { return strings.ReplaceAll(strings.Trim(fmt.Sprint(h), "[]"), " ", ",") }
