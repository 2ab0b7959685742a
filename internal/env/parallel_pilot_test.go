package env

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// smallParallelLearner builds a pilot-scale learner: tiny networks, short
// episodes, small replay — fast enough for the race detector.
func smallParallelLearner(t *testing.T, seed int64, workers int) *ParallelLearner {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.BatchSize = 16
	cfg.Hidden = []int{8, 8}
	cfg.ReplayCap = 5000
	dist := DefaultTrainingDistribution()
	dist.MaxFlows = 2
	dist.EpisodeDuration = 4
	return NewParallelLearner(cfg, dist, seed, workers)
}

// TestParallelLearnerHookAndSnapshot: AfterEpisode fires once per episode
// on the owning goroutine, SnapshotActor taken inside the hook is a true
// clone (later training does not mutate it), and Stop from inside the hook
// halts dispatch while draining episodes already in flight.
func TestParallelLearnerHookAndSnapshot(t *testing.T) {
	p := smallParallelLearner(t, 1, 2)
	var fired []int
	var snap *core.MLPPolicy
	var snapAction float64
	state := make([]float64, p.Cfg.StateDim())
	p.AfterEpisode = func(episodes int) {
		fired = append(fired, episodes)
		if episodes == 2 {
			snap = p.SnapshotActor()
			snapAction = snap.Action(state)
			p.Stop()
		}
	}
	hist := p.Train(50)
	// Stop at episode 2 with 2 workers: at most one extra in-flight episode
	// drains after the hook halts dispatch.
	if len(hist) < 2 || len(hist) > 4 {
		t.Fatalf("Stop drained to %d episodes, want 2..4", len(hist))
	}
	if len(fired) != len(hist) {
		t.Fatalf("hook fired %d times for %d episodes", len(fired), len(hist))
	}
	for i, ep := range fired {
		if ep != i+1 {
			t.Fatalf("hook sequence %v", fired)
		}
	}
	if snap == nil {
		t.Fatal("no snapshot taken")
	}
	if got := snap.Action(state); got != snapAction {
		t.Fatalf("snapshot mutated by later training: %v vs %v", got, snapAction)
	}

	// Sticky: a second Train without ResetStop dispatches nothing new.
	before := p.Episodes
	p.Train(10)
	if p.Episodes != before {
		t.Fatalf("stopped learner trained %d more episodes", p.Episodes-before)
	}
	p.ResetStop()
	p.AfterEpisode = nil
	p.Train(1)
	if p.Episodes != before+1 {
		t.Fatalf("ResetStop: episodes %d, want %d", p.Episodes, before+1)
	}
}

// TestParallelLearnerCheckpointRoundTrip: a round trip through a checkpoint
// restores the actor bitwise, the counters and the replay length, under a
// different worker count than the one that wrote it.
func TestParallelLearnerCheckpointRoundTrip(t *testing.T) {
	p := smallParallelLearner(t, 3, 2)
	reg := telemetry.NewRegistry()
	p.Instrument(reg)
	p.Train(3)
	path := filepath.Join(t.TempDir(), "par.ckpt")
	if err := p.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if m, _ := reg.Snapshot().Get("ckpt_bytes_written_total"); m.Count == 0 {
		t.Fatal("checkpoint telemetry not recorded")
	}

	q, err := LoadParallelLearner(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.Workers != 4 {
		t.Fatalf("workers %d", q.Workers)
	}
	if q.Episodes != p.Episodes || len(q.RewardHistory) != len(p.RewardHistory) {
		t.Fatalf("counters: %d/%d vs %d/%d", q.Episodes, len(q.RewardHistory), p.Episodes, len(p.RewardHistory))
	}
	if q.Replay.Len() != p.Replay.Len() {
		t.Fatalf("replay %d vs %d", q.Replay.Len(), p.Replay.Len())
	}
	state := make([]float64, p.Cfg.StateDim())
	for i := range state {
		state[i] = 0.1 * float64(i)
	}
	if a, b := q.Policy().Action(state), p.Policy().Action(state); a != b {
		t.Fatalf("restored actor diverges: %v vs %v", a, b)
	}
}
