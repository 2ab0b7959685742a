package rl

import (
	"math"
	"math/rand"
	"testing"
)

func TestReplayBufferRing(t *testing.T) {
	rb := NewReplayBuffer(3)
	if rb.Len() != 0 {
		t.Fatalf("empty buffer Len = %d", rb.Len())
	}
	for i := 0; i < 5; i++ {
		rb.Add(Transition{Reward: float64(i)})
	}
	if rb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", rb.Len())
	}
	// Entries 2,3,4 should remain.
	rng := rand.New(rand.NewSource(1))
	seen := map[float64]bool{}
	for i := 0; i < 200; i++ {
		for _, tr := range rb.Sample(rng, 3, nil) {
			seen[tr.Reward] = true
		}
	}
	for _, old := range []float64{0, 1} {
		if seen[old] {
			t.Fatalf("evicted transition %v still sampled", old)
		}
	}
	for _, cur := range []float64{2, 3, 4} {
		if !seen[cur] {
			t.Fatalf("live transition %v never sampled", cur)
		}
	}
}

// The ring allocates only what it holds: it grows with its contents, never
// past its capacity, and once wrapped overwrites in place.
func TestReplayBufferGrowsOnDemand(t *testing.T) {
	rb := NewReplayBuffer(200_000)
	if cap(rb.buf) != 0 {
		t.Fatalf("new buffer allocated %d slots", cap(rb.buf))
	}
	for i := 0; i < 300; i++ {
		rb.Add(Transition{Reward: float64(i)})
	}
	if rb.Len() != 300 || cap(rb.buf) > 512 {
		t.Fatalf("300 adds: Len %d, %d slots allocated", rb.Len(), cap(rb.buf))
	}
	small := NewReplayBuffer(100)
	for i := 0; i < 250; i++ {
		small.Add(Transition{Reward: float64(i)})
	}
	if small.Len() != 100 || cap(small.buf) != 100 || small.next != 50 || !small.full {
		t.Fatalf("250 adds to 100 slots: Len %d, cap %d, next %d, full %v", small.Len(), cap(small.buf), small.next, small.full)
	}
	for i, tr := range small.buf { // slots 0–49 rewritten by adds 200–249
		want := float64(100 + i)
		if i < 50 {
			want = float64(200 + i)
		}
		if tr.Reward != want {
			t.Fatalf("slot %d holds add %v, want %v", i, tr.Reward, want)
		}
	}
}

func TestReplaySampleEmptyPanics(t *testing.T) {
	rb := NewReplayBuffer(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rb.Sample(rand.New(rand.NewSource(1)), 1, nil)
}

func TestActBounds(t *testing.T) {
	cfg := DefaultConfig(4, 3, 1)
	cfg.Hidden = []int{16, 16}
	tr := NewTrainer(cfg, 1)
	for i := 0; i < 100; i++ {
		s := []float64{float64(i), -1, 0.5, 2}
		a := tr.Act(s, true)
		if a[0] < -1 || a[0] > 1 || math.IsNaN(a[0]) {
			t.Fatalf("action %v out of bounds", a)
		}
	}
}

// A one-step bandit: reward = 1 - (a - target(s))^2. The optimal policy is
// a = target(s). TD3 should steer the deterministic policy toward it.
func TestTD3SolvesContinuousBandit(t *testing.T) {
	cfg := DefaultConfig(1, 1, 1)
	cfg.Hidden = []int{32, 32}
	cfg.Batch = 64
	cfg.ExploreNoise = 0.3
	tr := NewTrainer(cfg, 42)
	rb := NewReplayBuffer(10000)
	rng := rand.New(rand.NewSource(7))

	target := func(s float64) float64 { return 0.6 * s }

	for step := 0; step < 3000; step++ {
		s := rng.Float64()*2 - 1
		// Act returns trainer-owned scratch; copy before storing in replay.
		a := append([]float64(nil), tr.Act([]float64{s}, true)...)
		r := 1 - (a[0]-target(s))*(a[0]-target(s))
		rb.Add(Transition{
			Global: []float64{s}, State: []float64{s}, Action: a,
			Reward: r, NextGlobal: []float64{s}, NextState: []float64{s},
			Done: true,
		})
		if rb.Len() >= cfg.Batch {
			tr.Update(rb)
		}
	}

	var worst float64
	for _, s := range []float64{-0.8, -0.4, 0, 0.4, 0.8} {
		a := tr.Act([]float64{s}, false)[0]
		if d := math.Abs(a - target(s)); d > worst {
			worst = d
		}
	}
	if worst > 0.25 {
		t.Fatalf("policy error %.3f, want < 0.25", worst)
	}
}

// The critic should learn Q values: with done transitions, Q(s,a) should
// approach r.
func TestCriticLossDecreases(t *testing.T) {
	cfg := DefaultConfig(2, 2, 1)
	cfg.Hidden = []int{24, 24}
	cfg.Batch = 32
	tr := NewTrainer(cfg, 3)
	rb := NewReplayBuffer(5000)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		s := []float64{rng.Float64(), rng.Float64()}
		a := []float64{rng.Float64()*2 - 1}
		r := s[0] + a[0]*0.5
		rb.Add(Transition{Global: s, State: s, Action: a, Reward: r,
			NextGlobal: s, NextState: s, Done: true})
	}
	var first, last float64
	for i := 0; i < 400; i++ {
		tr.Update(rb)
		if i == 20 {
			first = tr.LastCriticLoss
		}
		last = tr.LastCriticLoss
	}
	if !(last < first) {
		t.Fatalf("critic loss did not decrease: first %.4f last %.4f", first, last)
	}
	if last > 0.05 {
		t.Fatalf("critic loss %.4f still high", last)
	}
}

// MADDPG rationale check: a critic given the global state achieves lower
// TD error than one blinded to it, when the reward depends on global
// information the local state lacks.
func TestGlobalCriticBeatsLocalOnGlobalReward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	makeData := func() []Transition {
		var data []Transition
		for i := 0; i < 2000; i++ {
			local := []float64{rng.Float64()}
			global := []float64{rng.Float64()*2 - 1} // e.g. competitor throughput
			a := []float64{rng.Float64()*2 - 1}
			// Reward depends strongly on the global component.
			r := global[0]*2 + 0.2*a[0]
			data = append(data, Transition{Global: global, State: local,
				Action: a, Reward: r, NextGlobal: global, NextState: local, Done: true})
		}
		return data
	}
	trainLoss := func(globalDim int, strip bool) float64 {
		cfg := DefaultConfig(1, globalDim, 1)
		cfg.Hidden = []int{24, 24}
		cfg.Batch = 64
		tr := NewTrainer(cfg, 11)
		rb := NewReplayBuffer(4000)
		for _, d := range makeData() {
			if strip {
				d.Global = nil
				d.NextGlobal = nil
			}
			rb.Add(d)
		}
		var last float64
		for i := 0; i < 300; i++ {
			tr.Update(rb)
			last = tr.LastCriticLoss
		}
		return last
	}
	withGlobal := trainLoss(1, false)
	withoutGlobal := trainLoss(0, true)
	if !(withGlobal < withoutGlobal/4) {
		t.Fatalf("global critic loss %.4f not clearly below local-only %.4f", withGlobal, withoutGlobal)
	}
}

func TestUpdateSkipsWhenBufferSmall(t *testing.T) {
	cfg := DefaultConfig(1, 1, 1)
	cfg.Hidden = []int{8}
	tr := NewTrainer(cfg, 1)
	rb := NewReplayBuffer(100)
	rb.Add(Transition{Global: []float64{0}, State: []float64{0},
		Action: []float64{0}, NextGlobal: []float64{0}, NextState: []float64{0}})
	before := tr.Actor.Forward([]float64{0.5})[0]
	tr.Update(rb) // batch 192 > 1: no-op
	after := tr.Actor.Forward([]float64{0.5})[0]
	if before != after {
		t.Fatal("Update modified networks despite insufficient data")
	}
}
