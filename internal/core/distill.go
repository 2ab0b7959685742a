package core

import (
	"math/rand"

	"repro/internal/nn"
)

// DistillOptions controls supervised distillation of the reference policy
// into an actor network of the Config's Hidden widths.
type DistillOptions struct {
	Samples int // training set size
	Epochs  int
	Batch   int
	LR      float64
	Seed    int64
}

// DefaultDistillOptions returns settings that reach small imitation error
// in a few seconds of CPU time.
func DefaultDistillOptions() DistillOptions {
	return DistillOptions{Samples: 20000, Epochs: 30, Batch: 64, LR: 0.003, Seed: 1}
}

// sampleState draws a plausible stacked state vector from the training
// distribution of Table 3 (bandwidth 40–160 Mbps, RTT 10–140 ms, buffers
// 0.1–16 BDP), with the per-frame features correlated the way the
// transport produces them.
func sampleState(cfg Config, rng *rand.Rand) []float64 {
	maxTput := (40 + 120*rng.Float64()) * 1e6
	minLat := 0.010 + 0.130*rng.Float64()
	out := make([]float64, 0, cfg.StateDim())
	// One trajectory point perturbed slightly per history frame.
	latRatio := 1 + rng.Float64()*rng.Float64()*4 // skew toward small queues
	tputRatio := rng.Float64()
	relCwnd := tputRatio * latRatio * (0.5 + rng.Float64())
	loss := 0.0
	if rng.Float64() < 0.15 {
		loss = rng.Float64() * 0.3
	}
	for w := 0; w < cfg.HistoryLen; w++ {
		jitter := func(v, amp float64) float64 { return v * (1 + amp*(rng.Float64()-0.5)) }
		ls := LocalState{
			TputRatio:     clamp01(jitter(tputRatio, 0.1)),
			MaxTput:       maxTput / cfg.TputScale,
			LatRatio:      1 + (latRatio-1)*jitter(1, 0.2),
			MinLat:        minLat / cfg.LatScale,
			RelCwnd:       jitter(relCwnd, 0.1),
			LossRatio:     loss,
			InflightRatio: 0.8 + 0.2*rng.Float64(),
			PacingRatio:   clamp01(jitter(tputRatio, 0.2)),
		}
		out = append(out, ls.Vector()...)
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// DistillPolicy fits an MLP actor to the reference policy by supervised
// regression over states drawn from the Table 3 training distribution. It
// returns the network and its final mean-squared imitation error.
func DistillPolicy(cfg Config, opts DistillOptions) (*nn.MLP, float64) {
	rng := rand.New(rand.NewSource(opts.Seed))
	ref := NewReferencePolicy(cfg)
	// Strategy-aware target: tune the reference control law's
	// aggressiveness to the objective cfg.Reward names (maxmin and α hold
	// a tighter per-flow queue, aurora a looser). The paper strategy maps
	// to the unchanged default Delta, pinned by the fig18 golden digest.
	ref.SetDelta(DistillDelta(MustRewardStrategy(cfg.Reward), ref.Delta))

	sizes := append([]int{cfg.StateDim()}, cfg.Hidden...)
	sizes = append(sizes, 1)
	net := nn.NewMLP(rng, nn.ReLU, nn.Tanh, sizes...)
	opt := nn.NewAdam(opts.LR)

	states := make([][]float64, opts.Samples)
	targets := make([]float64, opts.Samples)
	for i := range states {
		states[i] = sampleState(cfg, rng)
		// Distill the default-mode control law; the competitive-mode
		// escalation is deployment-side state the network does not carry.
		targets[i] = ref.actionWithDelta(states[i], ref.Delta)
	}

	// One minibatch is one row-major matrix through the batch-major nn path;
	// the ragged last one reuses the same scratch at a smaller row count.
	x := make([]float64, 0, opts.Batch*cfg.StateDim())
	dOut := make([]float64, 0, opts.Batch)
	var lastLoss float64
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		perm := rng.Perm(opts.Samples)
		var loss float64
		for b := 0; b < opts.Samples; b += opts.Batch {
			mb := perm[b:min(b+opts.Batch, opts.Samples)]
			x, dOut = x[:0], dOut[:0]
			for _, idx := range mb {
				x = append(x, states[idx]...)
			}
			for i, out := range net.ForwardBatch(x, len(mb)) {
				d := out - targets[mb[i]]
				loss += 0.5 * d * d
				dOut = append(dOut, d)
			}
			net.BackwardBatch(dOut, true, false)
			opt.Step(net, float64(len(mb)))
		}
		lastLoss = loss / float64(opts.Samples)
	}
	return net, lastLoss
}
