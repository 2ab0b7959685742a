package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/ckpt"
	"repro/internal/nn"
)

// Policy maps the stacked state vector (w × 8 features, newest frame first)
// to an action in [-1, 1].
type Policy interface {
	Action(state []float64) float64
}

// BatchPolicy is implemented by policies that evaluate many states in one
// call: ActionBatch sets actions[i] to exactly what Action would return for
// the i-th of the n states packed row-major in states ([n][StateDim]).
// Service's evaluator answers a pulled chunk with one such call. A policy
// whose Action carries state from one call to the next (ReferencePolicy's
// mode detector) does not implement it, and neither does a wrapper that
// only forwards Action: those keep the per-request path.
type BatchPolicy interface {
	Policy
	ActionBatch(states []float64, n int, actions []float64)
}

// PolicyCloner is implemented by policies that can produce an independent
// instance of themselves. Policies keep internal scratch or detector state
// and serialize Action calls behind a service's evalMu; a sharded server
// runs N evaluators concurrently, so each shard needs its own instance.
type PolicyCloner interface {
	ClonePolicy() Policy
}

// ClonePolicy returns an independent instance of p when it implements
// PolicyCloner, and p itself otherwise. A policy without ClonePolicy that
// is shared across shards must be safe for concurrent Action calls.
func ClonePolicy(p Policy) Policy {
	if c, ok := p.(PolicyCloner); ok {
		return c.ClonePolicy()
	}
	return p
}

// MLPPolicy wraps a trained actor network.
type MLPPolicy struct {
	Net *nn.MLP
}

// ClonePolicy implements PolicyCloner: the weights are deep-copied and the
// clone gets its own forward-pass scratch (nn.MLP is not goroutine-safe).
func (p *MLPPolicy) ClonePolicy() Policy {
	return &MLPPolicy{Net: p.Net.Clone()}
}

// Action implements Policy.
func (p *MLPPolicy) Action(state []float64) float64 {
	return clampAction(p.Net.Forward(state)[0])
}

// ActionBatch implements BatchPolicy: whole groups of four states go
// through nn.MLP.ForwardBatch, which gives each row Forward's bits
// (DESIGN.md §16's summation contract), and the last n mod 4 through
// Action. ForwardBatch's vector tiles take rows four at a time and leave
// the rest to a scalar loop that is slower than the per-sample Forward.
func (p *MLPPolicy) ActionBatch(states []float64, n int, actions []float64) {
	n4, dim := n&^3, p.Net.InDim()
	if n4 > 0 {
		out, w := p.Net.ForwardBatch(states[:n4*dim], n4), p.Net.OutDim()
		for i := range actions[:n4] {
			actions[i] = clampAction(out[i*w])
		}
	}
	for i := n4; i < n; i++ {
		actions[i] = p.Action(states[i*dim : (i+1)*dim])
	}
}

// clampAction limits a network output to the action range [-1, 1].
func clampAction(a float64) float64 {
	if a > 1 {
		a = 1
	}
	if a < -1 {
		a = -1
	}
	return a
}

// SavePolicy serializes an actor network to path as JSON weights. The file
// is written atomically (temp file + fsync + rename), so a crash mid-save
// leaves the previous weights rather than a truncated JSON that LoadPolicy
// would later reject.
func SavePolicy(path string, net *nn.MLP) error {
	data, err := json.MarshalIndent(net, "", " ")
	if err != nil {
		return fmt.Errorf("core: marshal policy: %w", err)
	}
	return ckpt.WriteAtomic(path, data, 0o644)
}

// validatePolicyShape checks a loaded actor's I/O widths against cfg. It is
// the single source of truth for dimension validation — LoadPolicy rejects a
// mismatched artifact with the identical error in every format, so
// operators see one message regardless of which format was mis-deployed.
func validatePolicyShape(path string, inDim, outDim int, cfg Config) error {
	if want := cfg.StateDim(); inDim != want {
		return fmt.Errorf("core: policy %s expects %d-wide states, config produces %d (HistoryLen %d × %d features)",
			path, inDim, want, cfg.HistoryLen, LocalFeatureDim)
	}
	if outDim != 1 {
		return fmt.Errorf("core: policy %s emits %d outputs, want 1 action", path, outDim)
	}
	return nil
}

// parsePolicyWeights decodes JSON actor weights and validates them against
// cfg; path is used only in error messages.
func parsePolicyWeights(data []byte, path string, cfg Config) (*MLPPolicy, error) {
	var net nn.MLP
	if err := json.Unmarshal(data, &net); err != nil {
		return nil, fmt.Errorf("core: parse policy %s: %w", path, err)
	}
	if err := validatePolicyShape(path, net.InDim(), net.OutDim(), cfg); err != nil {
		return nil, err
	}
	return &MLPPolicy{Net: &net}, nil
}

// ErrNotSealedPolicy rejects a ckpt container that holds something other
// than a sealed policy: a training checkpoint, or a compiled "AQP1" blob
// from an older `astraea quantize`. Neither carries float actor weights,
// and a compiled network is no longer a file format (servers compile at
// load), so the remedy is to load the float weights instead.
var ErrNotSealedPolicy = errors.New("ckpt container does not hold a sealed policy " +
	"(a training checkpoint, or a quantized blob from an older astraea quantize); " +
	"give the float actor weights instead (serve -policy, quantize -in): " +
	"JSON from astraea train, or a sealed artifact from astraea pilot")

// LoadPolicy reads a float actor from path in either policy format, sniffed
// by the ckpt magic:
//
//   - JSON weights (SavePolicy): nil metadata;
//   - a sealed generation artifact (SaveSealedPolicy): its PolicyMeta.
//
// A sealed artifact is a ckpt container, so corruption anywhere in it is
// rejected by the CRC before a field is parsed, and a container with any
// other payload is rejected with ErrNotSealedPolicy. Both formats are
// validated against cfg by validatePolicyShape: an actor whose input width
// does not match cfg.StateDim(), or that does not emit exactly one action,
// is rejected with the same error whichever format carried it. Callers
// that serve compile the result with QuantizeMLPPolicy.
func LoadPolicy(path string, cfg Config) (*MLPPolicy, *PolicyMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if !bytes.HasPrefix(data, []byte(ckpt.Magic)) {
		mp, err := parsePolicyWeights(data, path, cfg)
		if err != nil {
			return nil, nil, err
		}
		return mp, nil, nil
	}
	payload, err := ckpt.Open(data)
	if err != nil {
		return nil, nil, fmt.Errorf("core: policy artifact %s: %w", path, err)
	}
	if tag := ckpt.NewDecoder(payload).Int64(); tag != sealedPolicyTag {
		return nil, nil, fmt.Errorf("core: policy artifact %s (payload tag %#x): %w", path, tag, ErrNotSealedPolicy)
	}
	return decodeSealedPolicy(payload, path, cfg)
}

// ReferencePolicy is the distilled rendering of the converged Astraea
// policy, encoding the structure §5.5 reports for the learned model: the
// action decreases monotonically with observed queueing delay, and each
// throughput level has a delay equilibrium (action = 0), so that competing
// flows — which share one queueing delay — are driven to equal rates. The
// closed-loop law targets the rate at which the flow's share of queueing
// delay matches Delta-scaled fairness, a Copa-style inverse-delay target
// that the reward of Eq. 8 makes optimal: it maximizes throughput while
// keeping the queue below the latency-tolerance knee and equalizing rates.
//
// In deployment the distilled policy is interchangeable with a trained
// MLPPolicy (DistillPolicy fits the network to it); experiments default to
// it for determinism.
type ReferencePolicy struct {
	Cfg Config
	// Delta is the inverse-delay aggressiveness: the equilibrium standing
	// queue with n flows on capacity C is n·MSS·8/(Delta·C) seconds.
	Delta float64
	// MinDelta floors the competitive-mode escalation below.
	MinDelta float64
	// Gain converts relative cwnd error into action.
	Gain float64
	// LossBackoff is the loss ratio above which the policy forces a = -1
	// (congestive collapse guard; random loss below it is ignored, keeping
	// the policy loss-resilient like the trained model).
	LossBackoff float64
	// ModeWindow is how many decisions the competitive-mode detector
	// observes before re-evaluating (it must exceed the agent's drain
	// period so Astraea's own drains register as queue-drain evidence).
	ModeWindow int

	// Competitive-tolerance state: pure delay-targeting starves against
	// buffer-filling competitors (Cubic, BBR), so — like Copa's competitive
	// mode and like the behaviour §5.3.1 reports for the trained model
	// ("more tolerance to latency inflation when occupying low bandwidth")
	// — the policy scales its delta down as the *never-drains floor* of
	// the queueing delay rises: each detector window records the minimum
	// latency ratio observed, and delta_eff = Delta / (1 + Tolerance *
	// (floor - drainedRatio)). The response is deliberately continuous: a
	// binary mode switch flips asymmetrically between identical flows
	// sitting near the threshold and wrecks fairness, whereas the floor is
	// a shared observable (one bottleneck queue), so identical flows derive
	// nearly identical deltas and intra-Astraea fairness is preserved at
	// every operating point.
	curDelta    float64
	minLatRatio float64
	seen        int
	// Tolerance is the slope of the delta reduction per unit of persistent
	// latency-ratio excess.
	Tolerance float64
}

// NewReferencePolicy returns the tuned reference policy.
func NewReferencePolicy(cfg Config) *ReferencePolicy {
	return &ReferencePolicy{
		Cfg: cfg, Delta: 0.08, MinDelta: 0.027, Gain: 4, LossBackoff: 0.08,
		ModeWindow: 80, Tolerance: 6,
		curDelta: 0.08, minLatRatio: math.Inf(1),
	}
}

// ClonePolicy implements PolicyCloner: tuning parameters are copied and the
// competitive-mode detector starts fresh (each shard observes its own
// request stream, so detector state is per-shard by construction).
func (rp *ReferencePolicy) ClonePolicy() Policy {
	c := *rp
	c.curDelta = rp.Delta
	c.seen = 0
	c.minLatRatio = math.Inf(1)
	return &c
}

// SetDelta changes the default aggressiveness (and resets the current
// mode), for sensitivity experiments.
func (rp *ReferencePolicy) SetDelta(d float64) {
	rp.Delta = d
	rp.curDelta = d
}

// observeMode updates the competitive-tolerance detector with one
// decision's latency ratio.
func (rp *ReferencePolicy) observeMode(latRatio float64) {
	if latRatio < rp.minLatRatio {
		rp.minLatRatio = latRatio
	}
	rp.seen++
	if rp.seen < rp.ModeWindow {
		return
	}
	const drainedRatio = 1.15
	excess := rp.minLatRatio - drainedRatio
	if excess < 0 {
		excess = 0
	}
	rp.curDelta = math.Max(rp.Delta/(1+rp.Tolerance*excess), rp.MinDelta)
	rp.seen = 0
	rp.minLatRatio = math.Inf(1)
}

// Action implements Policy. It decodes the newest frame of the stacked
// feature vector (layout per LocalState.Vector) and advances the
// competitive-mode detector.
func (rp *ReferencePolicy) Action(state []float64) float64 {
	if len(state) >= LocalFeatureDim && state[2] > 0 {
		rp.observeMode(state[2])
	}
	delta := rp.curDelta
	if delta <= 0 {
		delta = rp.Delta
	}
	return rp.actionWithDelta(state, delta)
}

// FallbackAction is the pure (stateless) rendering of the control law at
// the default delta: no mode detector, no internal state, so it is safe to
// call from any number of goroutines concurrently. The serving layer
// (internal/serve) returns it in-band when a request misses its deadline or
// is shed at admission — a deterministic safe answer beats blocking a
// sender on a slow or overloaded model.
func (rp *ReferencePolicy) FallbackAction(state []float64) float64 {
	return rp.actionWithDelta(state, rp.Delta)
}

// actionWithDelta is the pure (stateless) control law at a fixed delta; the
// distillation pipeline trains the neural actor against it at the default
// delta.
func (rp *ReferencePolicy) actionWithDelta(state []float64, delta float64) float64 {
	if len(state) < LocalFeatureDim {
		return 0
	}
	tputRatio := state[0]
	maxTput := state[1] * rp.Cfg.TputScale // bits/sec
	latRatio := state[2]
	minLat := state[3] * rp.Cfg.LatScale // seconds
	relCwnd := state[4]
	lossRatio := state[5]

	if maxTput <= 1 || minLat <= 0 {
		// No signal yet: probe upward.
		return 1
	}
	// Congestive-loss guard: heavy loss relative to delivery forces backoff.
	if lossRatio > rp.LossBackoff*math.Max(tputRatio, 0.1) {
		return -1
	}

	lat := latRatio * minLat
	dq := lat - minLat
	// Floor the queueing delay at a small fraction of the base RTT so the
	// target stays finite on an empty queue (where the policy probes up).
	minDq := 0.002 * minLat
	if minDq < 50e-6 {
		minDq = 50e-6
	}
	if dq < minDq {
		dq = minDq
	}

	// Target rate: inverse to queueing delay (packets/sec → bits/sec).
	targetBps := 1500 * 8 / (delta * dq)
	// Convert to a relative-cwnd target: cwnd*/(thrmax·latmin) = target/thrmax
	// up to the srtt/latmin factor, which cancels in the ratio below when
	// queues are modest.
	targetRel := targetBps / maxTput * latRatio // cwnd ≈ rate · srtt
	cur := relCwnd
	if cur <= 0 {
		return 1
	}
	a := rp.Gain * (targetRel/cur - 1)
	if a > 1 {
		a = 1
	}
	if a < -1 {
		a = -1
	}
	return a
}

// EquilibriumQueueDelay returns the standing queueing delay at which n
// flows on capacity c (bits/sec) reach action = 0 — exposed for tests and
// the Fig. 17 interpretation experiment.
func (rp *ReferencePolicy) EquilibriumQueueDelay(n int, cBps float64) float64 {
	return float64(n) * 1500 * 8 / (rp.Delta * cBps)
}
