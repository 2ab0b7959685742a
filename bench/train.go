package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// The train workload is fixed work: seconds/trainSecondsPerEpisode
// episodes of trainEpisodeSimS simulated seconds each, one round of the
// paper loop's 20 TD3 updates (batch 192) per 5 simulated seconds;
// astraea-train's 30 sim-s episodes are six of these back to back. Short
// episodes give a 15 s run six samples for its median and upper quartile.
const (
	trainEpisodeSimS       = 5.0
	trainSecondsPerEpisode = 2.5
	trainWarmUpdates       = 4
)

// warmEpisode is the fixed rollout that pre-fills the replay buffer during
// set-up, so every timed update samples a full batch. It is as short as
// fills one batch with a margin (about 290 transitions for 192): what a
// rollout costs depends on how hard the seeded initial actor sends, and a
// 10 sim-s one moved setup_s by 40 % from seed to seed.
var warmEpisode = env.EpisodeConfig{
	RateBps: 100e6, BaseRTT: 0.030, BufBDP: 1, Duration: 4,
	Flows: []env.FlowPlan{{Start: 0}, {Start: 0.5}, {Start: 1}},
}

// trainRig is a constructed, warmed learner.
type trainRig struct {
	learner *env.ParallelLearner
	reg     *telemetry.Registry
	initial *core.MLPPolicy // the actor before any update, for the rollout probe
}

func (rg *trainRig) updates() int64 {
	return rg.reg.Counter("rl_update_steps_total", "").Value()
}

func setupTrain(o options, cfg core.Config, dist env.TrainingDistribution) (*trainRig, error) {
	rg := &trainRig{reg: telemetry.NewRegistry()}
	rg.learner = env.NewParallelLearner(cfg, dist, o.seed, runtime.GOMAXPROCS(0))
	rg.learner.Instrument(rg.reg)
	rg.initial = rg.learner.SnapshotActor()
	env.RunEpisode(warmEpisode, cfg, rg.learner.SnapshotActor(), o.seed, rg.learner.Replay,
		&env.Exploration{Stddev: 0.1}, nil)
	if n := rg.learner.Replay.Len(); n < cfg.BatchSize {
		return nil, fmt.Errorf("warm-up episode produced %d transitions, fewer than one batch of %d", n, cfg.BatchSize)
	}
	for i := 0; i < trainWarmUpdates; i++ {
		rg.learner.Trainer.Update(rg.learner.Replay)
	}
	return rg, nil
}

func runTrain(o options) (*workloadResult, error) {
	began := time.Now()
	res := newResult("train_td3", o)
	cfg := core.DefaultConfig()
	dist := env.DefaultTrainingDistribution()
	dist.EpisodeDuration = trainEpisodeSimS
	cfg.ModelUpdateSteps = o.pick(cfg.ModelUpdateSteps, 2)
	episodes := max(1, int(o.seconds/trainSecondsPerEpisode))
	perEpisode := max(1, int(dist.EpisodeDuration/cfg.ModelUpdateInterval)) * cfg.ModelUpdateSteps

	var setups []float64
	var rg *trainRig
	for rep := 0; rep < o.setupReps(); rep++ {
		t0 := time.Now()
		var err error
		if rg, err = setupTrain(o, cfg, dist); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	l := rg.learner

	updates0, replay0 := rg.updates(), l.Replay.Len()
	stamps := make([]time.Time, 0, episodes)
	l.AfterEpisode = func(int) { stamps = append(stamps, time.Now()) }
	start := time.Now()
	rewards := l.Train(episodes)
	wall := time.Since(start).Seconds()
	res.Phases["timed"] = phaseInfo{Seconds: wall, Samples: episodes,
		Note: fmt.Sprintf("Train(%d): %g sim-s episodes, %d updates each at batch %d, %d rollout workers",
			episodes, dist.EpisodeDuration, perEpisode, cfg.BatchSize, l.Workers)}

	res.Attempted = int64(episodes)
	if len(rewards) != episodes || len(stamps) != episodes {
		res.Failed = int64(episodes)
		res.fail("%d rewards and %d episode hooks for %d episodes", len(rewards), len(stamps), episodes)
		return res, nil
	}
	for i, r := range rewards {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			res.Failed++
			res.fail("episode %d: reward %v", i, r)
		}
	}
	done := rg.updates() - updates0
	if want := int64(episodes * perEpisode); done != want {
		res.Failed = int64(episodes)
		res.fail("%d updates applied, schedule says %d", done, want)
	}
	res.Digest = fmt.Sprintf("%016x", digestFloats(rewards))

	gapMs := make([]float64, episodes) // from one episode's completion to the next
	prev := start
	for i, s := range stamps {
		gapMs[i] = s.Sub(prev).Seconds() * 1e3
		prev = s
	}

	if !o.trace {
		rates := make([]float64, episodes) // episodes per second, one episode at a time
		for i, ms := range gapMs {
			rates[i] = 1e3 / ms
		}
		res.EndToEnd["setup_s"] = summarize(setups)
		res.EndToEnd["throughput"] = summarize(rates)
		res.EndToEnd["op_p50_ms"] = summarize(gapMs)
		res.EndToEnd["op_tail_ms"] = upperQuartile(gapMs)
		res.Info["updates_per_s"] = float64(done) / wall
		res.WallS = time.Since(began).Seconds()
		return res, nil
	}

	pl := res.PerLayer
	probes := o.pick(20, 2)
	// Mean, not median: every second update also steps the actor (TD3's
	// delayed policy update), so the cost is bimodal and the mean over an
	// even number of updates is what the schedule pays.
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		l.Trainer.Update(l.Replay)
	}
	updateS := time.Since(t0).Seconds() / float64(probes)
	pl["rl.updates_per_episode"] = float64(perEpisode)
	pl["rl.update_ms"] = updateS * 1e3
	pl["rl.update_share"] = float64(done) * updateS / wall
	pl["rl.updates_per_s"] = float64(done) / wall

	// Rollout cost alone: episodes drawn from the same distribution, driven
	// by the initial actor, with nothing else running.
	rng := rand.New(rand.NewSource(o.seed))
	rollS := make([]float64, 3)
	for i := range rollS {
		ec := dist.Sample(rng)
		t0 := time.Now()
		env.RunEpisode(ec, cfg, rg.initial, rng.Int63(), nil, &env.Exploration{Stddev: 0.1}, nil)
		rollS[i] = time.Since(t0).Seconds()
	}
	rollMed := summarize(rollS).Value
	pl["env.episode_wall_s"] = summarize(gapMs).Value / 1e3
	pl["env.rollout_s"] = rollMed
	pl["env.transitions_per_episode"] = float64(l.Replay.Len()-replay0) / float64(episodes)
	pl["env.rollout_share"] = float64(episodes) * rollMed / wall

	pl["nn.float_action_ns"], pl["nn.forward_us"], pl["nn.backward_us"] = probeNN(o)
	pl["proc.cpu_s"], pl["proc.peak_rss_mb"] = rusage()
	// Train is observed through AfterEpisode and registry counters, which
	// the untraced run uses too: there is no wrapper in its path.
	pl["trace.overhead_pct"] = 0

	tr := newTracer(fmt.Sprintf("train_td3-seed%d", o.seed))
	prev = start
	for i, s := range stamps {
		id := tr.add(0, "episode", prev, s, 0, map[string]float64{"episode": float64(i), "reward": rewards[i]})
		tr.add(id, "rl.Trainer.Update", prev, s, float64(perEpisode)*updateS,
			map[string]float64{"count": float64(perEpisode), "unit_ms": updateS * 1e3})
		prev = s
	}
	if err := tr.write(o.outDir, "train_td3"); err != nil {
		return nil, err
	}

	// The learner goroutine is the critical path: it applies the updates
	// and, before the first episode only, waits for a rollout.
	b := newBudget("Train wall", wall)
	b.add("rl (TD3 updates)", "probe", float64(done)*updateS)
	b.add("env (first rollout, not hidden)", "probe", rollMed)
	b.close()
	res.Budgets = append(res.Budgets, b)
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// probeNN prices the float network the trainer and the rollouts use: one
// MLPPolicy.Action in ns, and one forward and one backward pass in µs, on
// the paper-size actor.
func probeNN(o options) (actionNs, forwardUs, backwardUs float64) {
	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(o.seed))
	net := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 256, 128, 64, 1)
	policy := &core.MLPPolicy{Net: net}
	state := core.SampleCalibrationState(cfg, rng)
	n := o.pick(2000, 200)
	timeIt := func(fn func()) float64 {
		rounds := make([]float64, 5)
		for r := range rounds {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				fn()
			}
			rounds[r] = float64(time.Since(t0)) / float64(n)
		}
		return summarize(rounds).Value
	}
	grad := []float64{1}
	actionNs = timeIt(func() { policy.Action(state) })
	forward := timeIt(func() { net.Forward(state) })
	both := timeIt(func() { net.Forward(state); net.Backward(grad) })
	return actionNs, forward / 1e3, math.Max(0, both-forward) / 1e3
}
