// Command astraea-train runs the offline multi-agent training pipeline
// (§3.4) and writes the learned actor as JSON weights loadable by
// core.LoadPolicy. It also supports supervised distillation of the
// reference policy, which is how the repository's default deployable neural
// model is produced quickly.
//
// Examples:
//
//	astraea-train -mode rl -episodes 50 -out actor.json
//	astraea-train -mode distill -out distilled.json
//	astraea-train -mode rl -episodes 500 -pprof 127.0.0.1:6060 -telemetry train.prom
//	astraea-train -mode rl -episodes 5000 -checkpoint train.ckpt -checkpoint-every 25
//	astraea-train -mode rl -episodes 5000 -resume train.ckpt -checkpoint train.ckpt
//
// -telemetry writes a metrics snapshot (Prometheus text, or JSON for a
// .json path) at exit; -pprof serves net/http/pprof and a live /metrics
// endpoint, which is how long training runs are watched for convergence
// (rl_critic_loss, env_episode_reward) and overhead.
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
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

func main() {
	mode := flag.String("mode", "distill", "rl (multi-agent TD3) or distill (supervised imitation)")
	episodes := flag.Int("episodes", 20, "training episodes (rl mode)")
	workers := flag.Int("workers", 4, "parallel environment instances (rl mode; paper uses 4)")
	samples := flag.Int("samples", 20000, "training samples (distill mode)")
	epochs := flag.Int("epochs", 30, "epochs (distill mode)")
	out := flag.String("out", "actor.json", "output weight file")
	seed := flag.Int64("seed", 1, "random seed")
	reward := flag.String("reward", "", "reward strategy: paper (default), aurora, maxmin, alpha[:a] (e.g. alpha:2)")
	checkpoint := flag.String("checkpoint", "", "write crash-safe training checkpoints to this path (rl mode; one worker)")
	checkpointEvery := flag.Int("checkpoint-every", 25, "episodes between checkpoint writes when -checkpoint is set")
	checkpointKeep := flag.Int("checkpoint-keep", 0,
		"rotate episode-numbered checkpoint copies (<path>.<episodes>), keeping the newest N plus the last promoted one (0 = single file, no series)")
	resume := flag.String("resume", "", "resume rl training from this checkpoint and continue toward -episodes total")
	telemetryOut := flag.String("telemetry", "", "write a telemetry snapshot to this path at exit (.json = JSON, else Prometheus text)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and live /metrics on this address (e.g. 127.0.0.1:6060)")
	flag.Parse()

	var reg *telemetry.Registry
	if *telemetryOut != "" || *pprofAddr != "" {
		reg = telemetry.NewRegistry()
		runner.InstrumentProcess(reg)
	}
	if *pprofAddr != "" {
		bound, stop, err := telemetry.Serve(*pprofAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "astraea-train: pprof:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "astraea-train: serving pprof and /metrics on http://%s\n", bound)
	}
	writeTelemetry := func() {
		if *telemetryOut == "" {
			return
		}
		if err := telemetry.WriteFile(*telemetryOut, reg); err != nil {
			fmt.Fprintln(os.Stderr, "astraea-train: telemetry:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "astraea-train: wrote telemetry snapshot to %s\n", *telemetryOut)
	}

	cfg := core.DefaultConfig()
	strategy, err := core.NewRewardStrategy(*reward)
	if err != nil {
		fmt.Fprintln(os.Stderr, "astraea-train:", err)
		fmt.Fprintln(os.Stderr, "astraea-train: known strategies:", core.RewardStrategyNames())
		os.Exit(1)
	}
	cfg.Reward = strategy.Name()
	rewardSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "reward" {
			rewardSet = true
		}
	})
	switch *mode {
	case "rl":
		if err := trainRL(cfg, reg, *episodes, *workers, *seed,
			*checkpoint, *checkpointEvery, *checkpointKeep, *resume, *out, rewardSet); err != nil {
			fmt.Fprintln(os.Stderr, "astraea-train:", err)
			os.Exit(1)
		}
	case "distill":
		opts := core.DefaultDistillOptions()
		opts.Samples = *samples
		opts.Epochs = *epochs
		opts.Seed = *seed
		opts.Reward = cfg.Reward
		net, loss := core.DistillPolicy(cfg, opts)
		fmt.Printf("distilled reference policy: imitation MSE = %.6f\n", loss)
		if err := core.SavePolicy(*out, net); err != nil {
			fmt.Fprintln(os.Stderr, "astraea-train:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "astraea-train: unknown mode %q\n", *mode)
		os.Exit(1)
	}
	writeTelemetry()
	fmt.Println("wrote", *out)
}

// trainRL runs the rl training loop on one learner, new or resumed from a
// checkpoint, and writes the actor to out. A progress line and, with
// ckptPath set, a crash-safe checkpoint every `every` episodes come from
// the learner's AfterEpisode hook; the final state is checkpointed once
// more at the end. With -resume, training continues from the saved episode
// count toward the -episodes total. Checkpointed runs use one worker, so
// the resumed trajectory is bitwise-identical to an uninterrupted run of
// the same length.
func trainRL(cfg core.Config, reg *telemetry.Registry,
	episodes, workers int, seed int64, ckptPath string, every, keep int, resume, out string,
	rewardSet bool) error {

	if ckptPath != "" || resume != "" {
		if workers > 1 {
			fmt.Fprintln(os.Stderr, "astraea-train: checkpointed training is serial for determinism; ignoring -workers")
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
		fmt.Fprintf(os.Stderr, "astraea-train: resumed from %s at episode %d (strategy %s)\n",
			resume, learner.Episodes, learner.StrategyName())
	} else {
		learner = env.NewParallelLearner(cfg, env.DefaultTrainingDistribution(), seed, workers)
	}
	if reg != nil {
		learner.Instrument(reg)
	}
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
		fmt.Fprintf(os.Stderr, "astraea-train: checkpointed episode %d to %s\n", learner.Episodes, ckptPath)
		return nil
	}
	var saveErr error
	learner.AfterEpisode = func(done int) {
		last := learner.RewardHistory[done-1]
		fmt.Printf("episodes %3d/%d: reward=%+.5f criticLoss=%.5f replay=%d\n",
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
