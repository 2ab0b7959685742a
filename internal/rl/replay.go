// Package rl implements the paper's multi-agent training algorithm
// (Algorithm 1): a deterministic-policy-gradient actor trained against a
// centralized critic that, MADDPG-style, consumes the global state of all
// active flows alongside the agent's local state and action. The TD3
// optimizations of Appendix A are included: twin critics with clipped
// double-Q learning, target networks with soft updates, delayed policy
// updates, and target policy smoothing.
package rl

import (
	"fmt"
	"math/rand"
)

// Transition is one experience tuple (g, s, a, r, g', s', done) gathered by
// the environment's state block.
type Transition struct {
	Global     []float64 // aggregated global state g (critic input only)
	State      []float64 // local state s (actor input)
	Action     []float64
	Reward     float64
	NextGlobal []float64
	NextState  []float64
	Done       bool
}

// checkWidths panics, naming the field and both sizes, when a vector of tr
// does not have the width cfg promises. The trainer calls it where it packs
// sampled transitions into batch matrices: unchecked, a short or long row
// would silently shift every later sample's features.
func (tr *Transition) checkWidths(cfg Config) {
	for _, f := range []struct {
		name string
		v    []float64
		want int
	}{
		{"Global", tr.Global, cfg.GlobalDim}, {"State", tr.State, cfg.StateDim}, {"Action", tr.Action, cfg.ActionDim},
		{"NextGlobal", tr.NextGlobal, cfg.GlobalDim}, {"NextState", tr.NextState, cfg.StateDim},
	} {
		if len(f.v) != f.want {
			panic(fmt.Sprintf("rl: transition %s has width %d, trainer Config says %d", f.name, len(f.v), f.want))
		}
	}
}

// ReplayBuffer is a fixed-capacity ring of transitions with uniform
// sampling (the experience-replay memory of Appendix A). The ring holds
// only what has been added: it grows toward its capacity as transitions
// arrive, so a 200k-slot ring that has seen 300 holds 300.
type ReplayBuffer struct {
	buf      []Transition // the stored transitions; len(buf) == Len()
	capacity int
	next     int // the slot the next Add writes
	full     bool
}

// NewReplayBuffer returns an empty buffer holding up to capacity
// transitions.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity <= 0 {
		panic("rl: replay capacity must be positive")
	}
	return &ReplayBuffer{capacity: capacity}
}

// Add stores a transition, evicting the oldest when full.
func (rb *ReplayBuffer) Add(t Transition) {
	if rb.full {
		rb.buf[rb.next] = t
	} else {
		rb.push(t)
	}
	rb.next++
	if rb.next == rb.capacity {
		rb.next = 0
		rb.full = true
	}
}

// push appends t to a ring that has not wrapped, doubling the backing
// array when it is full but never past the capacity.
func (rb *ReplayBuffer) push(t Transition) {
	if len(rb.buf) == cap(rb.buf) {
		grown := make([]Transition, len(rb.buf), min(max(2*cap(rb.buf), 64), rb.capacity))
		copy(grown, rb.buf)
		rb.buf = grown
	}
	rb.buf = append(rb.buf, t)
}

// Len returns the number of stored transitions.
func (rb *ReplayBuffer) Len() int { return len(rb.buf) }

// Cap returns the most transitions the buffer holds.
func (rb *ReplayBuffer) Cap() int { return rb.capacity }

// Sample draws n transitions uniformly with replacement into out (resized
// as needed) and returns it. It panics on an empty buffer.
func (rb *ReplayBuffer) Sample(rng *rand.Rand, n int, out []Transition) []Transition {
	m := rb.Len()
	if m == 0 {
		panic("rl: sampling from empty replay buffer")
	}
	out = out[:0]
	for i := 0; i < n; i++ {
		out = append(out, rb.buf[rng.Intn(m)])
	}
	return out
}
