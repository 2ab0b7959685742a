package rl

import (
	"math"
	"sync"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Config sets the trainer's hyperparameters. Defaults follow Table 4 and
// Appendix A of the paper.
type Config struct {
	StateDim  int // local state width (actor input)
	GlobalDim int // global state width (critic extra input)
	ActionDim int

	Hidden []int // hidden layer sizes; paper uses 256/128/64

	ActorLR  float64
	CriticLR float64
	Gamma    float64
	Tau      float64 // soft target update rate
	Batch    int

	// TD3 specifics
	PolicyDelay  int     // actor updates once per this many critic updates
	TargetNoise  float64 // target policy smoothing stddev
	NoiseClip    float64
	ExploreNoise float64 // behaviour noise during data collection
}

// DefaultConfig returns the paper-aligned hyperparameters for the given
// dimensions.
func DefaultConfig(stateDim, globalDim, actionDim int) Config {
	return Config{
		StateDim: stateDim, GlobalDim: globalDim, ActionDim: actionDim,
		Hidden:  []int{256, 128, 64},
		ActorLR: 0.001, CriticLR: 0.001,
		Gamma: 0.98, Tau: 0.005, Batch: 192,
		PolicyDelay: 2, TargetNoise: 0.2, NoiseClip: 0.5, ExploreNoise: 0.1,
	}
}

// Trainer holds the actor, twin critics and their targets, and performs
// TD3/MADDPG updates from sampled transitions.
type Trainer struct {
	Cfg Config

	Actor   *nn.MLP
	Critic1 *nn.MLP
	Critic2 *nn.MLP

	actorTarget   *nn.MLP
	critic1Target *nn.MLP
	critic2Target *nn.MLP

	actorOpt   *nn.Adam
	critic1Opt *nn.Adam
	critic2Opt *nn.Adam

	rng     *rng.Rand
	updates int

	// Reusable scratch, hoisted here to keep Update/Act allocation-free.
	// Trainer methods are not safe for concurrent use; inside Update a helper
	// goroutine shares this scratch under the phase rules documented there.
	// The batch matrices are row-major, one row per sampled transition, and
	// grow on the first Update.
	batch      []Transition
	actBuf     []float64
	ciBuf      []float64
	states     []float64 // [n][state]: actor input
	nextStates []float64 // [n][next state]: target-actor input
	in         []float64 // [n][global, state, action]: critic input, read-only once packed
	inNext     []float64 // [n][next global, next state, smoothed target action]
	inPi       []float64 // [n][global, state, π(state)]: Critic1 input for the actor step
	q1, q2     []float64 // [n] Critic1/Critic2 outputs on in (network scratch)
	err1, err2 []float64 // [n] dLoss/dQ for each critic
	dAct       []float64 // [n][action] dLoss/dAction for the actor step

	// Update's helper half: actorStep is set before the first phase, fork
	// says whether the half gets its own goroutine (fixed in NewTrainer by
	// the network shape and batch size), the phase functions are bound once
	// so that starting the helper allocates nothing, and wg joins it.
	actorStep                 bool
	fork                      bool
	forwardHalf, backwardHalf func()
	wg                        sync.WaitGroup

	// Telemetry instruments; nil (no-op) unless Instrument was called.
	mUpdates      *telemetry.Counter
	mActorUpdates *telemetry.Counter
	mReplayLen    *telemetry.Gauge
	mCriticLoss   *telemetry.Gauge

	// LastCriticLoss and LastActorObjective expose training diagnostics.
	LastCriticLoss     float64
	LastActorObjective float64
}

// Instrument registers training telemetry on reg: critic update steps,
// delayed actor updates, replay-buffer occupancy, and the latest critic
// TD-loss (a convergence signal long training runs watch via /metrics).
func (t *Trainer) Instrument(reg *telemetry.Registry) {
	t.mUpdates = reg.Counter("rl_update_steps_total", "critic gradient steps applied")
	t.mActorUpdates = reg.Counter("rl_actor_updates_total", "delayed actor updates applied")
	t.mReplayLen = reg.Gauge("rl_replay_occupancy", "transitions held in the replay buffer at the last update")
	t.mCriticLoss = reg.Gauge("rl_critic_loss", "mean TD loss of the latest critic update")
}

// NewTrainer builds the networks. The critic input is [global, state,
// action]; the actor input is [state] and its tanh output lies in (-1,1).
func NewTrainer(cfg Config, seed int64) *Trainer {
	r := rng.New(seed)
	actor := nn.NewMLP(r.Rand, nn.ReLU, nn.Tanh, actorSizes(cfg)...)
	critic1 := nn.NewMLP(r.Rand, nn.ReLU, nn.Linear, criticSizes(cfg)...)
	critic2 := nn.NewMLP(r.Rand, nn.ReLU, nn.Linear, criticSizes(cfg)...)
	return assemble(cfg, r,
		[6]*nn.MLP{actor, critic1, critic2, actor.Clone(), critic1.Clone(), critic2.Clone()},
		[3]*nn.Adam{nn.NewAdam(cfg.ActorLR), nn.NewAdam(cfg.CriticLR), nn.NewAdam(cfg.CriticLR)})
}

// actorSizes and criticSizes are the layer widths NewMLP builds the actor
// and each critic (and their targets) with, input first.
func actorSizes(cfg Config) []int {
	return append(append([]int{cfg.StateDim}, cfg.Hidden...), cfg.ActionDim)
}

func criticSizes(cfg Config) []int {
	return append(append([]int{cfg.GlobalDim + cfg.StateDim + cfg.ActionDim}, cfg.Hidden...), 1)
}

// assemble builds a trainer around existing networks — actor, Critic1,
// Critic2 and their three targets, in that order — and optimizers (actor,
// Critic1, Critic2), drawing from r.
func assemble(cfg Config, r *rng.Rand, nets [6]*nn.MLP, opts [3]*nn.Adam) *Trainer {
	t := &Trainer{
		Cfg:   cfg,
		Actor: nets[0], Critic1: nets[1], Critic2: nets[2],
		actorTarget: nets[3], critic1Target: nets[4], critic2Target: nets[5],
		actorOpt: opts[0], critic1Opt: opts[1], critic2Opt: opts[2],
		rng:    r,
		actBuf: make([]float64, cfg.ActionDim),
	}
	t.forwardHalf, t.backwardHalf = t.helperForward, t.helperBackward
	macs := 0
	for _, l := range t.Critic1.Layers {
		macs += l.In * l.Out
	}
	t.fork = cfg.Batch*macs >= forkMinMACs
	return t
}

// forkMinMACs is the smallest update that forks the helper goroutine,
// counted as the multiply-adds of one critic's forward pass over the batch.
// Below it the learner runs the helper's half itself, because waking a
// second core and joining it costs more than the half it would take. On a
// 2-vCPU VM with the products on the fused AVX-512 tile, medians of 3–6
// runs per sweep, up to three sweeps, forked against inline: the fairness
// lab's shape (16/12 hidden, batch 48: 50 k) 3 % slower, 32/32 at batch 48
// (132 k) 4 % faster in its one sweep, within its spread, and six shapes of
// 180–301 k 2–60 % slower in every sweep; 313–394 k broke even within
// noise (each side won some sweeps); 470–921 k ran 2–25 % faster. Each
// time the products got faster while the fork cost stayed, the crossover
// moved up: from 100 k to 200 k with the elementwise kernels, 250 k with
// the unfused zmm tile, and 400 k once every term was one fused
// multiply-add.
const forkMinMACs = 400_000

// startHalf runs one of the helper's phase functions: on its own goroutine
// if the update forks, otherwise inline before the learner's half. Either
// way wg.Wait joins it, and since the two halves touch disjoint networks
// the order they run in does not change a bit.
func (t *Trainer) startHalf(half func()) {
	t.wg.Add(1)
	if t.fork {
		go half()
		return
	}
	half()
}

// Act runs the current policy on state; with explore=true, Gaussian
// behaviour noise is added and the result clamped to [-1, 1]. The returned
// slice is scratch owned by the trainer, valid until the next Act call; copy
// it to retain (e.g. before storing in a replay transition).
func (t *Trainer) Act(state []float64, explore bool) []float64 {
	out := t.Actor.Forward(state)
	act := t.actBuf
	copy(act, out)
	if explore {
		for i := range act {
			act[i] = clamp(act[i]+t.rng.NormFloat64()*t.Cfg.ExploreNoise, 1)
		}
	}
	return act
}

// clamp limits v to [-lim, lim].
func clamp(v, lim float64) float64 {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

// Update performs one training step on a batch sampled from rb: both
// critics learn the clipped-double-Q temporal-difference target, and every
// PolicyDelay steps the actor ascends Critic1's value with soft target
// updates following. The batch moves through the networks as whole matrices
// (nn.ForwardBatch/BackwardBatch), bit-identical to stepping it one
// transition at a time.
//
// The work runs in two fork/join phases, half of each on a helper
// goroutine (inline on the learner when the networks are too small to
// repay the fork; see forkMinMACs). Within a phase every network is
// touched by exactly one goroutine, and each network sees the same
// operations on the same inputs as a serial update would, so the result
// does not depend on scheduling.
// Forward: the learner runs the target networks and draws the smoothing
// noise, the helper runs Critic1 and Critic2 on in and, on an actor step,
// the Actor into inPi. Backward: the helper steps Critic2, the learner
// steps Critic1 and then the Actor. The helper reads in during both
// phases (Critic2 retains it for its backward pass), so nothing writes in
// after packing. The RNG, telemetry and diagnostics stay on the learner.
func (t *Trainer) Update(rb *ReplayBuffer) {
	if rb.Len() < t.Cfg.Batch {
		return
	}
	t.batch = rb.Sample(t.rng.Rand, t.Cfg.Batch, t.batch)
	batch, n := t.batch, len(t.batch)
	gs, na := t.Cfg.GlobalDim+t.Cfg.StateDim, t.Cfg.ActionDim

	t.states, t.nextStates, t.in, t.inNext = t.states[:0], t.nextStates[:0], t.in[:0], t.inNext[:0]
	for i := range batch {
		tr := &batch[i]
		tr.checkWidths(t.Cfg) // a mis-sized row would shift every later one
		t.states = append(t.states, tr.State...)
		t.nextStates = append(t.nextStates, tr.NextState...)
		t.in = append(append(append(t.in, tr.Global...), tr.State...), tr.Action...)
	}
	t.actorStep = (t.updates+1)%t.Cfg.PolicyDelay == 0

	// --- critic update ---
	t.startHalf(t.forwardHalf)
	// Target actions with smoothing noise, drawn in sample order.
	aNext := t.actorTarget.ForwardBatch(t.nextStates, n)
	for s, tr := range batch {
		t.inNext = append(append(t.inNext, tr.NextGlobal...), tr.NextState...)
		for _, a := range aNext[s*na : (s+1)*na] {
			noise := clamp(t.rng.NormFloat64()*t.Cfg.TargetNoise, t.Cfg.NoiseClip)
			t.inNext = append(t.inNext, clamp(a+noise, 1))
		}
	}
	q1n := t.critic1Target.ForwardBatch(t.inNext, n)
	q2n := t.critic2Target.ForwardBatch(t.inNext, n)
	t.wg.Wait()
	t.err1, t.err2 = t.err1[:0], t.err2[:0]
	var closs float64
	for s, tr := range batch {
		target := tr.Reward
		if !tr.Done {
			target += t.Cfg.Gamma * math.Min(q1n[s], q2n[s])
		}
		d1, d2 := t.q1[s]-target, t.q2[s]-target
		t.err1, t.err2 = append(t.err1, d1), append(t.err2, d2)
		closs += 0.5 * (d1*d1 + d2*d2)
	}
	t.startHalf(t.backwardHalf)
	defer t.wg.Wait()
	// Every gradient accumulator is zero here: each Adam step clears the
	// gradients it applies, and the actor step's pass back through Critic1
	// does not accumulate.
	t.Critic1.BackwardBatch(t.err1, true, false)
	t.critic1Opt.Step(t.Critic1, float64(n))
	t.LastCriticLoss = closs / float64(n)
	t.updates++
	t.mUpdates.Inc()
	t.mReplayLen.Set(float64(rb.Len()))
	t.mCriticLoss.Set(t.LastCriticLoss)

	// --- delayed actor update ---
	if !t.actorStep {
		return
	}
	// Q(g, s, π(s)) on the stepped Critic1, π(s) computed by the helper.
	var obj float64
	for _, q := range t.Critic1.ForwardBatch(t.inPi, n) {
		obj += q
	}
	// dQ/dInput with the critic frozen (dQ/dQ = 1 reuses err1), then slice
	// out dQ/dAction and negate it: gradient ascent on Q.
	for s := range t.err1 {
		t.err1[s] = 1
	}
	dIn := t.Critic1.BackwardBatch(t.err1, false, true)
	t.dAct = t.dAct[:0]
	for s := 0; s < n; s++ {
		for _, d := range dIn[s*(gs+na)+gs : (s+1)*(gs+na)] {
			t.dAct = append(t.dAct, -d)
		}
	}
	t.Actor.BackwardBatch(t.dAct, true, false)
	t.actorOpt.Step(t.Actor, float64(n))
	t.LastActorObjective = obj / float64(n)
	t.mActorUpdates.Inc()

	nn.SoftUpdate(t.actorTarget, t.Actor, t.Cfg.Tau)
	nn.SoftUpdate(t.critic1Target, t.Critic1, t.Cfg.Tau)
}

// helperForward is the helper's forward phase: both online critics on the
// replayed batch and, on an actor step, π(s) packed into inPi.
func (t *Trainer) helperForward() {
	defer t.wg.Done()
	n := len(t.batch)
	t.q1 = t.Critic1.ForwardBatch(t.in, n)
	t.q2 = t.Critic2.ForwardBatch(t.in, n)
	if !t.actorStep {
		return
	}
	gs, na := t.Cfg.GlobalDim+t.Cfg.StateDim, t.Cfg.ActionDim
	a := t.Actor.ForwardBatch(t.states, n)
	t.inPi = append(t.inPi[:0], t.in...)
	for s := 0; s < n; s++ {
		copy(t.inPi[s*(gs+na)+gs:(s+1)*(gs+na)], a[s*na:(s+1)*na])
	}
}

// helperBackward is the helper's backward phase: Critic2's gradient and
// Adam step and, on an actor step, its target's soft update.
func (t *Trainer) helperBackward() {
	defer t.wg.Done()
	t.Critic2.BackwardBatch(t.err2, true, false)
	t.critic2Opt.Step(t.Critic2, float64(len(t.batch)))
	if t.actorStep {
		nn.SoftUpdate(t.critic2Target, t.Critic2, t.Cfg.Tau)
	}
}

// QValue exposes Critic1's estimate for diagnostics and tests.
func (t *Trainer) QValue(global, state, action []float64) float64 {
	t.ciBuf = append(append(append(t.ciBuf[:0], global...), state...), action...)
	return t.Critic1.Forward(t.ciBuf)[0]
}
