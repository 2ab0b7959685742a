// Checkpoint codecs for the trainer and the replay buffer. Together with
// the nn codec these capture every bit of state that influences future
// updates: all six networks (actor, twin critics, and their targets), the
// three Adam optimizers, the update counter that gates delayed policy
// updates, the sampling/noise RNG, and the replay ring.

package rl

import (
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Encode appends the trainer's complete state to e.
func (t *Trainer) Encode(e *ckpt.Encoder) {
	// Config first: the decoder rebuilds the trainer from it, then
	// overwrites the freshly-initialized state with the recorded one.
	e.Int(t.Cfg.StateDim)
	e.Int(t.Cfg.GlobalDim)
	e.Int(t.Cfg.ActionDim)
	e.Ints(t.Cfg.Hidden)
	e.Float64(t.Cfg.ActorLR)
	e.Float64(t.Cfg.CriticLR)
	e.Float64(t.Cfg.Gamma)
	e.Float64(t.Cfg.Tau)
	e.Int(t.Cfg.Batch)
	e.Int(t.Cfg.PolicyDelay)
	e.Float64(t.Cfg.TargetNoise)
	e.Float64(t.Cfg.NoiseClip)
	e.Float64(t.Cfg.ExploreNoise)

	t.Actor.Encode(e)
	t.Critic1.Encode(e)
	t.Critic2.Encode(e)
	t.actorTarget.Encode(e)
	t.critic1Target.Encode(e)
	t.critic2Target.Encode(e)
	t.actorOpt.Encode(e)
	t.critic1Opt.Encode(e)
	t.critic2Opt.Encode(e)

	hi, lo := t.rng.State()
	e.Uint64(hi)
	e.Uint64(lo)
	e.Int(t.updates)
	e.Float64(t.LastCriticLoss)
	e.Float64(t.LastActorObjective)
}

// DecodeTrainer reads a trainer written by Encode. The restored trainer
// continues the exact update stream of the saved one: same batch samples,
// same noise draws, same delayed-actor schedule. It is built around the
// decoded networks, each checked against the layer widths the config
// implies, so what it allocates is bounded by the payload and not by the
// widths the config declares.
func DecodeTrainer(d *ckpt.Decoder) (*Trainer, error) {
	cfg := Config{
		StateDim:  d.Int(),
		GlobalDim: d.Int(),
		ActionDim: d.Int(),
		Hidden:    d.Ints(),
	}
	cfg.ActorLR = d.Float64()
	cfg.CriticLR = d.Float64()
	cfg.Gamma = d.Float64()
	cfg.Tau = d.Float64()
	cfg.Batch = d.Int()
	cfg.PolicyDelay = d.Int()
	cfg.TargetNoise = d.Float64()
	cfg.NoiseClip = d.Float64()
	cfg.ExploreNoise = d.Float64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if cfg.StateDim < 1 || cfg.ActionDim < 1 || cfg.GlobalDim < 0 || cfg.Batch < 1 || cfg.PolicyDelay < 1 {
		return nil, fmt.Errorf("rl: implausible decoded config %+v", cfg)
	}

	var nets [6]*nn.MLP // actor, Critic1, Critic2, then their targets
	for i := range nets {
		m, err := nn.DecodeMLP(d)
		if err != nil {
			return nil, fmt.Errorf("rl: network %d: %w", i, err)
		}
		want, role := criticSizes(cfg), "critic"
		if i%3 == 0 {
			want, role = actorSizes(cfg), "actor"
		}
		if got := layerSizes(m); !slices.Equal(got, want) {
			return nil, fmt.Errorf("rl: decoded %s network %d has widths %v, config wants %v", role, i, got, want)
		}
		nets[i] = m
	}
	var opts [3]*nn.Adam
	for i := range opts {
		a, err := nn.DecodeAdam(d)
		if err != nil {
			return nil, fmt.Errorf("rl: optimizer %d: %w", i, err)
		}
		opts[i] = a
	}
	r := rng.New(0)
	r.SetState(d.Uint64(), d.Uint64())
	t := assemble(cfg, r, nets, opts)
	t.updates = d.Int()
	t.LastCriticLoss = d.Float64()
	t.LastActorObjective = d.Float64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if t.updates < 0 {
		return nil, fmt.Errorf("rl: update counter %d is negative", t.updates)
	}
	return t, nil
}

// layerSizes is m's layer widths, input first, as NewMLP takes them.
func layerSizes(m *nn.MLP) []int {
	sizes := []int{m.InDim()}
	for _, l := range m.Layers {
		sizes = append(sizes, l.Out)
	}
	return sizes
}

// Encode appends the replay ring to e. Only live transitions are written
// (a freshly-started run's mostly-empty 200k-slot ring costs nothing), but
// ring geometry — capacity, write cursor, wrap flag — is preserved exactly
// so eviction order after a resume matches the uninterrupted run.
func (rb *ReplayBuffer) Encode(e *ckpt.Encoder) {
	e.Int(rb.capacity)
	e.Int(rb.next)
	e.Bool(rb.full)
	live := rb.Len()
	e.Int(live)
	for i := 0; i < live; i++ {
		tr := &rb.buf[i]
		e.Float64s(tr.Global)
		e.Float64s(tr.State)
		e.Float64s(tr.Action)
		e.Float64(tr.Reward)
		e.Float64s(tr.NextGlobal)
		e.Float64s(tr.NextState)
		e.Bool(tr.Done)
	}
}

// DecodeReplayBuffer reads a buffer written by Encode. The ring grows as
// transitions decode, so what it allocates is bounded by the payload, not
// by the capacity it declares.
func DecodeReplayBuffer(d *ckpt.Decoder) (*ReplayBuffer, error) {
	capacity := d.Int()
	next := d.Int()
	full := d.Bool()
	live := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if capacity < 1 {
		return nil, fmt.Errorf("rl: replay capacity %d", capacity)
	}
	if next < 0 || next >= capacity {
		return nil, fmt.Errorf("rl: replay cursor %d out of range [0,%d)", next, capacity)
	}
	wantLive := next
	if full {
		wantLive = capacity
	}
	if live != wantLive {
		return nil, fmt.Errorf("rl: replay has %d live transitions, geometry implies %d", live, wantLive)
	}
	rb := &ReplayBuffer{capacity: capacity, next: next, full: full}
	for i := 0; i < live; i++ {
		tr := Transition{
			Global:     d.Float64s(),
			State:      d.Float64s(),
			Action:     d.Float64s(),
			Reward:     d.Float64(),
			NextGlobal: d.Float64s(),
			NextState:  d.Float64s(),
			Done:       d.Bool(),
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		rb.push(tr)
	}
	return rb, nil
}
