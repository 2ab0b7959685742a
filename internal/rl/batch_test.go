package rl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
)

// referenceUpdate is the per-sample TD3 step Update replaced, kept verbatim
// as the oracle: one scalar Forward/Backward per transition, parameter
// gradients accumulated in sample order. Update must match it bit for bit,
// including the RNG draw order (batch indices, then target noise in sample
// order).
func referenceUpdate(t *Trainer, rb *ReplayBuffer) {
	if rb.Len() < t.Cfg.Batch {
		return
	}
	batch := rb.Sample(t.rng.Rand, t.Cfg.Batch, nil)
	cat := func(parts ...[]float64) []float64 {
		var in []float64
		for _, p := range parts {
			in = append(in, p...)
		}
		return in
	}

	t.Critic1.ZeroGrad()
	t.Critic2.ZeroGrad()
	var closs float64
	for _, tr := range batch {
		aNext := append([]float64(nil), t.actorTarget.Forward(tr.NextState)...)
		for i := range aNext {
			noise := t.rng.NormFloat64() * t.Cfg.TargetNoise
			if noise > t.Cfg.NoiseClip {
				noise = t.Cfg.NoiseClip
			}
			if noise < -t.Cfg.NoiseClip {
				noise = -t.Cfg.NoiseClip
			}
			aNext[i] += noise
			if aNext[i] > 1 {
				aNext[i] = 1
			}
			if aNext[i] < -1 {
				aNext[i] = -1
			}
		}
		inNext := cat(tr.NextGlobal, tr.NextState, aNext)
		q1n := t.critic1Target.Forward(inNext)[0]
		q2n := t.critic2Target.Forward(inNext)[0]
		target := tr.Reward
		if !tr.Done {
			target += t.Cfg.Gamma * math.Min(q1n, q2n)
		}

		in := cat(tr.Global, tr.State, tr.Action)
		q1 := t.Critic1.Forward(in)[0]
		t.Critic1.Backward([]float64{q1 - target})
		q2 := t.Critic2.Forward(in)[0]
		t.Critic2.Backward([]float64{q2 - target})
		d1, d2 := q1-target, q2-target
		closs += 0.5 * (d1*d1 + d2*d2)
	}
	n := float64(len(batch))
	t.critic1Opt.Step(t.Critic1, n)
	t.critic2Opt.Step(t.Critic2, n)
	t.LastCriticLoss = closs / n
	t.updates++

	if t.updates%t.Cfg.PolicyDelay != 0 {
		return
	}
	t.Actor.ZeroGrad()
	var obj float64
	for _, tr := range batch {
		a := t.Actor.Forward(tr.State)
		obj += t.Critic1.Forward(cat(tr.Global, tr.State, a))[0]
		t.Critic1.ZeroGrad()
		dIn := t.Critic1.Backward([]float64{1})
		dA := dIn[len(tr.Global)+len(tr.State):]
		neg := make([]float64, len(dA))
		for i := range dA {
			neg[i] = -dA[i]
		}
		t.Actor.Backward(neg)
	}
	t.Critic1.ZeroGrad()
	t.actorOpt.Step(t.Actor, n)
	t.LastActorObjective = obj / n

	nn.SoftUpdate(t.actorTarget, t.Actor, t.Cfg.Tau)
	nn.SoftUpdate(t.critic1Target, t.Critic1, t.Cfg.Tau)
	nn.SoftUpdate(t.critic2Target, t.Critic2, t.Cfg.Tau)
}

// td3Shapes are the two trainer shapes the bitwise tests run: one whose
// every width and the batch size are odd (all kernel remainder paths), and
// the paper's.
var td3Shapes = []struct {
	name   string
	cfg    Config
	golden uint64 // weightDigest after td3Steps updates, captured before the batch-major kernels existed
}{
	{"odd", func() Config {
		c := DefaultConfig(5, 3, 2)
		c.Hidden = []int{33, 18, 7}
		c.Batch = 37
		return c
	}(), 0xd050662d6d63c8ae},
	{"paper", DefaultConfig(40, 12, 1), 0x6b909cfd58fd4740},
}

// td3Steps covers six delayed actor updates and six soft target updates.
const td3Steps = 12

// filledReplay returns a buffer of n random transitions of cfg's widths, a
// third of them terminal.
func filledReplay(cfg Config, seed int64, n int) *ReplayBuffer {
	rng := rand.New(rand.NewSource(seed))
	vec := func(w int, lo, hi float64) []float64 {
		v := make([]float64, w)
		for i := range v {
			v[i] = lo + (hi-lo)*rng.Float64()
		}
		return v
	}
	rb := NewReplayBuffer(n)
	for i := 0; i < n; i++ {
		rb.Add(Transition{
			Global: vec(cfg.GlobalDim, 0, 1), State: vec(cfg.StateDim, -1, 2), Action: vec(cfg.ActionDim, -1, 1),
			Reward:     rng.Float64()*0.2 - 0.1,
			NextGlobal: vec(cfg.GlobalDim, 0, 1), NextState: vec(cfg.StateDim, -1, 2),
			Done: rng.Intn(3) == 0,
		})
	}
	return rb
}

func (t *Trainer) networks() map[string]*nn.MLP {
	return map[string]*nn.MLP{
		"actor": t.Actor, "critic1": t.Critic1, "critic2": t.Critic2,
		"actorTarget": t.actorTarget, "critic1Target": t.critic1Target, "critic2Target": t.critic2Target,
	}
}

// weightDigest is FNV-64a over the IEEE-754 bits of every weight and bias
// of the six networks, in a fixed order.
func weightDigest(t *Trainer) uint64 {
	h := fnv.New64a()
	nets := t.networks()
	for _, name := range []string{"actor", "critic1", "critic2", "actorTarget", "critic1Target", "critic2Target"} {
		for _, l := range nets[name].Layers {
			for _, vs := range [][]float64{l.W, l.B} {
				for _, v := range vs {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
				}
			}
		}
	}
	return h.Sum64()
}

// TestTD3UpdateMatchesReference runs the batched Update and the per-sample
// reference side by side from the same seed and requires every weight of
// all six networks, and both diagnostics, to be bit-equal after each step.
// The odd shape also runs at PolicyDelay 1 and 3, where Update's helper
// must predict actor steps on every update and on every third. Every run
// is made with the helper's half forked and inline, whichever the shape
// would pick on its own.
func TestTD3UpdateMatchesReference(t *testing.T) {
	type run struct {
		name string
		cfg  Config
	}
	var runs []run
	for _, sh := range td3Shapes {
		runs = append(runs, run{sh.name, sh.cfg})
	}
	for _, delay := range []int{1, 3} {
		cfg := td3Shapes[0].cfg
		cfg.PolicyDelay = delay
		runs = append(runs, run{fmt.Sprintf("%s_delay%d", td3Shapes[0].name, delay), cfg})
	}
	for _, sh := range runs {
		t.Run(sh.name, func(t *testing.T) {
			for _, mode := range []string{"fork", "inline"} {
				t.Run(mode, func(t *testing.T) {
					rb := filledReplay(sh.cfg, 21, 600)
					got, want := NewTrainer(sh.cfg, 5), NewTrainer(sh.cfg, 5)
					got.fork = mode == "fork"
					matchReference(t, got, want, rb)
				})
			}
		})
	}
}

// matchReference steps got with Update and want with referenceUpdate,
// failing at the first step where a diagnostic or any weight differs.
func matchReference(t *testing.T, got, want *Trainer, rb *ReplayBuffer) {
	t.Helper()
	for step := 1; step <= td3Steps; step++ {
		got.Update(rb)
		referenceUpdate(want, rb)
		if a, b := math.Float64bits(got.LastCriticLoss), math.Float64bits(want.LastCriticLoss); a != b {
			t.Fatalf("step %d: LastCriticLoss %v, reference %v", step, got.LastCriticLoss, want.LastCriticLoss)
		}
		if a, b := math.Float64bits(got.LastActorObjective), math.Float64bits(want.LastActorObjective); a != b {
			t.Fatalf("step %d: LastActorObjective %v, reference %v", step, got.LastActorObjective, want.LastActorObjective)
		}
		wantNets := want.networks()
		for name, g := range got.networks() {
			for li, l := range g.Layers {
				wl := wantNets[name].Layers[li]
				for i := range l.W {
					if math.Float64bits(l.W[i]) != math.Float64bits(wl.W[i]) {
						t.Fatalf("step %d: %s layer %d W[%d] = %v, reference %v", step, name, li, i, l.W[i], wl.W[i])
					}
				}
				for i := range l.B {
					if math.Float64bits(l.B[i]) != math.Float64bits(wl.B[i]) {
						t.Fatalf("step %d: %s layer %d B[%d] = %v, reference %v", step, name, li, i, l.B[i], wl.B[i])
					}
				}
			}
		}
	}
}

// TestTD3UpdateGoldenDigest pins the weights td3Steps updates produce to
// constants captured on the commit before Update went batch-major, so any
// later kernel (SIMD, a GEMM library) has a fixed target that does not
// depend on an in-tree reference staying honest. Every kernel tier must hit
// it.
func TestTD3UpdateGoldenDigest(t *testing.T) {
	for _, sh := range td3Shapes {
		t.Run(sh.name, func(t *testing.T) {
			forEachKernel(t, func(t *testing.T) {
				rb := filledReplay(sh.cfg, 21, 600)
				tr := NewTrainer(sh.cfg, 5)
				for step := 0; step < td3Steps; step++ {
					tr.Update(rb)
				}
				if got := weightDigest(tr); got != sh.golden {
					t.Fatalf("weight digest %#016x, want %#016x", got, sh.golden)
				}
			})
		})
	}
}

// TestTD3UpdateZeroAlloc pins the steady-state update, actor step included,
// at zero allocations on every kernel tier: all batch matrices are trainer-
// or network-owned scratch sized by the first call. The odd shape would run
// the helper's half inline; it is forked here so that starting the helper
// is pinned too.
func TestTD3UpdateZeroAlloc(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		cfg := td3Shapes[0].cfg
		rb := filledReplay(cfg, 21, 600)
		tr := NewTrainer(cfg, 5)
		tr.fork = true
		tr.Update(rb)
		tr.Update(rb)
		if n := testing.AllocsPerRun(10, func() { tr.Update(rb) }); n != 0 {
			t.Fatalf("Update allocates %.1f times per op in steady state, want 0", n)
		}
	})
}

// TestTD3UpdateForksOnlyLargeNetworks pins which side of forkMinMACs the
// two benchmarked shapes fall on — the paper's forks, the fairness lab's
// runs the helper's half inline — and the nearest measured shapes on either
// side of the break-even band.
func TestTD3UpdateForksOnlyLargeNetworks(t *testing.T) {
	shape := func(hidden, batch int) Config {
		c := DefaultConfig(40, 12, 1)
		c.Hidden, c.Batch = []int{hidden, hidden}, batch
		return c
	}
	lab := DefaultConfig(40, 12, 1)
	lab.Hidden, lab.Batch = []int{16, 12}, 48
	for _, c := range []struct {
		name string
		cfg  Config
		fork bool
	}{
		{"paper", DefaultConfig(40, 12, 1), true},
		{"fairness_lab", lab, false},
		{"40x40_b48", shape(40, 48), false}, // 180 k: 6 % slower forked
		{"48x48_b64", shape(48, 64), true},  // 313 k: 6–13 % faster forked
	} {
		if got := NewTrainer(c.cfg, 1).fork; got != c.fork {
			t.Errorf("%s: fork = %v, want %v", c.name, got, c.fork)
		}
	}
}

// TestTD3UpdateWidthMismatchPanics: a transition whose field widths disagree
// with the trainer's Config must be refused where the batch is packed, with
// the field named, not silently shifted into a neighbouring row.
func TestTD3UpdateWidthMismatchPanics(t *testing.T) {
	cfg := DefaultConfig(3, 2, 1)
	cfg.Hidden = []int{8}
	cfg.Batch = 4
	good := func() Transition {
		return Transition{Global: make([]float64, 2), State: make([]float64, 3), Action: make([]float64, 1),
			NextGlobal: make([]float64, 2), NextState: make([]float64, 3)}
	}
	cases := map[string]func(*Transition){
		"Global":     func(tr *Transition) { tr.Global = make([]float64, 3) },
		"State":      func(tr *Transition) { tr.State = make([]float64, 2) },
		"Action":     func(tr *Transition) { tr.Action = nil },
		"NextGlobal": func(tr *Transition) { tr.NextGlobal = make([]float64, 1) },
		"NextState":  func(tr *Transition) { tr.NextState = make([]float64, 4) },
	}
	for field, corrupt := range cases {
		t.Run(field, func(t *testing.T) {
			rb := NewReplayBuffer(4)
			for i := 0; i < 4; i++ {
				tr := good()
				corrupt(&tr)
				rb.Add(tr)
			}
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "rl: transition "+field+" has width") {
					t.Fatalf("panic %q does not name field %s", msg, field)
				}
			}()
			NewTrainer(cfg, 1).Update(rb)
			t.Fatal("Update accepted a mis-sized transition")
		})
	}
}
