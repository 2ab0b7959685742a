package env

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestParallelLearnerCollectsAndTrains(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel training loop")
	}
	cfg := core.DefaultConfig()
	cfg.BatchSize = 64
	dist := DefaultTrainingDistribution()
	dist.MaxFlows = 2
	dist.EpisodeDuration = 6

	p := NewParallelLearner(cfg, dist, 1, 3)
	hist := p.Train(6)
	if len(hist) != 6 {
		t.Fatalf("history %d entries, want 6", len(hist))
	}
	if p.Replay.Len() == 0 {
		t.Fatal("no experience gathered")
	}
	if p.Trainer.LastCriticLoss == 0 {
		t.Fatal("no updates ran")
	}
	// The deployed policy must produce bounded actions.
	pol := p.Policy()
	a := pol.Action(make([]float64, cfg.StateDim()))
	if a < -1 || a > 1 {
		t.Fatalf("policy action %v", a)
	}
}

func TestParallelLearnerSingleWorkerFloor(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.BatchSize = 32
	dist := DefaultTrainingDistribution()
	dist.MaxFlows = 2
	dist.EpisodeDuration = 4
	p := NewParallelLearner(cfg, dist, 2, 0) // clamps to 1 worker
	if p.Workers != 1 {
		t.Fatalf("workers %d", p.Workers)
	}
	hist := p.Train(2)
	if len(hist) != 2 {
		t.Fatalf("history %v", hist)
	}
}

// TestParallelLearnerAppliesInDispatchOrder forces the two primed episodes
// to finish in opposite orders in two otherwise identical runs. Outcomes are
// applied in dispatch order, so both runs must end with bit-equal reward
// histories and actor weights; applying them as they finish would not.
func TestParallelLearnerAppliesInDispatchOrder(t *testing.T) {
	run := func(first, second int) *ParallelLearner {
		p := smallParallelLearner(t, 5, 2)
		// The outcome channel is unbuffered, so once first's send returns
		// the learner holds it, and second's send comes after.
		firstDone := make(chan struct{})
		p.handOver = func(idx int, send func()) {
			switch idx {
			case first:
				send()
				close(firstDone)
			case second:
				<-firstDone
				send()
			default:
				send()
			}
		}
		if hist := p.Train(4); len(hist) != 4 {
			t.Fatalf("history %d entries, want 4", len(hist))
		}
		return p
	}
	inOrder, reversed := run(0, 1), run(1, 0)
	for i, r := range inOrder.RewardHistory {
		if math.Float64bits(r) != math.Float64bits(reversed.RewardHistory[i]) {
			t.Fatalf("episode %d reward %v with the second episode finishing first, %v in order",
				i, reversed.RewardHistory[i], r)
		}
	}
	for li, l := range inOrder.Trainer.Actor.Layers {
		other := reversed.Trainer.Actor.Layers[li]
		for i, w := range l.W {
			if math.Float64bits(w) != math.Float64bits(other.W[i]) {
				t.Fatalf("actor layer %d weight %d differs with the completion order: %v vs %v", li, i, other.W[i], w)
			}
		}
		for i, b := range l.B {
			if math.Float64bits(b) != math.Float64bits(other.B[i]) {
				t.Fatalf("actor layer %d bias %d differs with the completion order: %v vs %v", li, i, other.B[i], b)
			}
		}
	}
}
