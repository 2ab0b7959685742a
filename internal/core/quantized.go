// Quantized policy deployment: the glue between nn's fixed-point compiler
// and the serving stack. A trained actor is deployed as its float weights
// (JSON, or a sealed generation artifact) and compiled here, by
// QuantizeMLPPolicy, against a calibration sweep of plausible stacked
// states. Compilation is deterministic and tier-independent, so there is no
// compiled file format: internal/serve's Reloader compiles at boot and at
// every hot reload unless asked for the float network, which stays
// available as the equivalence oracle (internal/check pins the two within
// tolerance on the 220-seed sweep), and `astraea quantize` compiles the
// same way to report the divergence before a deploy.

package core

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
)

// QuantizedPolicy wraps a fixed-point compiled actor. It is the default
// serving form: ~4x smaller parameters than the float net and a forward
// pass several times faster than even the vector float one, per request
// or, through ActionBatch, for a whole chunk of a service's pull in one
// call (see DESIGN.md §12), with actions that match the float oracle
// within the closed-loop tolerance gates.
type QuantizedPolicy struct {
	Q *nn.QuantizedMLP
}

// Action implements Policy, clamping to the action range like MLPPolicy.
func (p *QuantizedPolicy) Action(state []float64) float64 {
	return clampAction(p.Q.Forward(state)[0])
}

// ActionBatch implements BatchPolicy on nn.QuantizedMLP.ForwardBatch, whose
// integer sums make every row bitwise what Forward gives for it.
func (p *QuantizedPolicy) ActionBatch(states []float64, n int, actions []float64) {
	out, w := p.Q.ForwardBatch(states, n), p.Q.OutDim()
	for i := range actions[:n] {
		actions[i] = clampAction(out[i*w])
	}
}

// ClonePolicy implements PolicyCloner: the compiled arrays are immutable
// and shared; each clone gets private evaluation scratch, so sharded
// evaluators run clones concurrently without copies of the weights.
func (p *QuantizedPolicy) ClonePolicy() Policy {
	return &QuantizedPolicy{Q: p.Q.Clone()}
}

// calibrationStates builds the quantization calibration sweep: n plausible
// stacked states from the distillation sampler (fixed seed — quantizing the
// same net twice yields bitwise-identical networks) plus two corner
// states: all features at their operating bounds, and all zeros. The bounds
// frame keeps every per-feature range wide enough that no state the
// transport can produce saturates the input quantizer (the quantizer holds
// 2× headroom above the corner). Per feature the corner is its tightest
// real bound, because input resolution is 2^14 steps over the corner value:
// TputRatio ≤ 1 by construction (tput/thrmax); MaxTput 2 covers links to
// 2×TputScale; MinLat 8 covers 800 ms base RTTs; InflightRatio ≈ 1 except
// transiently after a cwnd cut. LatRatio, RelCwnd, LossRatio and
// PacingRatio have no physical bound short of the upstream featureCap
// clamp — startup states routinely push PacingRatio past small corners
// (pacing/thrmax with thrmax still tiny), so those four calibrate to the
// cap itself.
func calibrationStates(cfg Config, n int) [][]float64 {
	rng := rand.New(rand.NewSource(42))
	cal := make([][]float64, 0, n+2)
	for i := 0; i < n; i++ {
		cal = append(cal, sampleState(cfg, rng))
	}
	bounds := LocalState{
		TputRatio: 2, MaxTput: 2, LatRatio: featureCap, MinLat: 8,
		RelCwnd: featureCap, LossRatio: featureCap, InflightRatio: 4,
		PacingRatio: featureCap,
	}
	hi := make([]float64, 0, cfg.StateDim())
	for w := 0; w < cfg.HistoryLen; w++ {
		hi = append(hi, bounds.Vector()...)
	}
	return append(cal, hi, make([]float64, cfg.StateDim()))
}

// SampleCalibrationState draws one plausible stacked state from the
// distillation sampler — the distribution quantization calibrates against.
// Exposed for tools (`astraea quantize`) that replay a sweep through both
// policy forms to report divergence before deploying the weights.
func SampleCalibrationState(cfg Config, rng *rand.Rand) []float64 {
	return sampleState(cfg, rng)
}

// QuantizeMLPPolicy compiles a float actor into its fixed-point serving
// form, calibrated against sampled stacked states for cfg. It is the one
// place a served network is compiled. The compilation is deterministic:
// the same weights and config always produce the same network, on every
// kernel tier.
func QuantizeMLPPolicy(p *MLPPolicy, cfg Config) (*QuantizedPolicy, error) {
	q, err := nn.Quantize(p.Net, nn.QuantizeOptions{Calibration: calibrationStates(cfg, 512)})
	if err != nil {
		return nil, fmt.Errorf("core: quantize policy: %w", err)
	}
	return &QuantizedPolicy{Q: q}, nil
}
