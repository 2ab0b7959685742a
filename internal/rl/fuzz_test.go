package rl

import (
	"math/rand"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/nn"
)

// FuzzTrainCheckpoint throws arbitrary bytes at the training checkpoint
// decoders, DecodeTrainer followed by DecodeReplayBuffer (the order a
// checkpoint holds them in) and DecodeReplayBuffer on its own. The property
// is "successful decode implies a usable value": any input either errors
// out or yields a trainer that acts and takes an update on well-formed
// transitions, and a ring that takes adds and samples. Neither decoder may
// allocate by what a payload declares rather than what it holds: a
// declared capacity or width that cannot be met must fail, not exhaust
// memory, which no recover catches.
func FuzzTrainCheckpoint(f *testing.F) {
	cfg := DefaultConfig(3, 2, 1)
	cfg.Hidden = []int{6}
	cfg.Batch = 8
	tr := NewTrainer(cfg, 1)
	rb := filledReplay(cfg, 2, 20)
	tr.Update(rb)
	var e ckpt.Encoder
	tr.Encode(&e)
	rb.Encode(&e)
	f.Add(e.Payload())

	// A replay ring declaring 2^40 slots and holding none.
	var ring ckpt.Encoder
	ring.Int64(1 << 40)
	ring.Int(0)
	ring.Bool(false)
	ring.Int(0)
	f.Add(ring.Payload())

	// A trainer whose config is sound and whose first network is one layer
	// of 2^62 × 4: In·Out wraps to 0, matching the empty weight slices.
	var net ckpt.Encoder
	net.Int(cfg.StateDim)
	net.Int(cfg.GlobalDim)
	net.Int(cfg.ActionDim)
	net.Ints(nil)
	net.Float64(cfg.ActorLR)
	net.Float64(cfg.CriticLR)
	net.Float64(cfg.Gamma)
	net.Float64(cfg.Tau)
	net.Int(cfg.Batch)
	net.Int(cfg.PolicyDelay)
	net.Float64(cfg.TargetNoise)
	net.Float64(cfg.NoiseClip)
	net.Float64(cfg.ExploreNoise)
	net.Int(1)
	net.Int64(1 << 62)
	net.Int(4)
	net.Int(int(nn.ReLU))
	bias := make([]float64, 4)
	for _, v := range [][]float64{nil, bias, nil, nil, bias, bias, nil, bias} {
		net.Float64s(v)
	}
	f.Add(net.Payload())

	f.Fuzz(func(t *testing.T, data []byte) {
		d := ckpt.NewDecoder(data)
		if tr, err := DecodeTrainer(d); err == nil {
			c := tr.Cfg
			tr.Act(make([]float64, c.StateDim), true)
			tr.QValue(make([]float64, c.GlobalDim), make([]float64, c.StateDim), make([]float64, c.ActionDim))
			if rb, err := DecodeReplayBuffer(d); err == nil {
				useRing(rb)
			}
			if c.Batch <= 64 {
				rb := NewReplayBuffer(c.Batch)
				for range c.Batch {
					rb.Add(Transition{
						Global: make([]float64, c.GlobalDim), State: make([]float64, c.StateDim),
						Action: make([]float64, c.ActionDim), NextGlobal: make([]float64, c.GlobalDim),
						NextState: make([]float64, c.StateDim),
					})
				}
				tr.Update(rb)
			}
		}
		if rb, err := DecodeReplayBuffer(ckpt.NewDecoder(data)); err == nil {
			useRing(rb)
		}
	})
}

// useRing adds to a decoded ring and samples from it.
func useRing(rb *ReplayBuffer) {
	rb.Add(Transition{Reward: 1})
	rb.Sample(rand.New(rand.NewSource(1)), 4, nil)
}
