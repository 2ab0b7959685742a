package env

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
)

// tinyLearner builds a learner small enough to train real episodes in test
// time while still exercising every piece of checkpointed state: episodes
// run long enough for update rounds, the batch is small enough that the
// replay fills within one episode, and PolicyDelay makes the delayed-actor
// schedule observable across the checkpoint boundary. reward names the
// strategy ("" = paper).
func tinyLearner(seed int64, reward string) *ParallelLearner {
	cfg := core.DefaultConfig()
	cfg.BatchSize = 48
	cfg.ModelUpdateInterval = 2
	cfg.ModelUpdateSteps = 4
	cfg.Reward = reward
	cfg.Hidden = []int{16, 12}
	cfg.ReplayCap = 4000
	dist := DefaultTrainingDistribution()
	dist.MinFlows, dist.MaxFlows = 2, 2
	dist.EpisodeDuration = 4
	return NewParallelLearner(cfg, dist, seed, 1)
}

func actorBits(l *ParallelLearner) []uint64 {
	var bits []uint64
	for _, layer := range l.Trainer.Actor.Layers {
		for _, w := range layer.W {
			bits = append(bits, math.Float64bits(w))
		}
		for _, b := range layer.B {
			bits = append(bits, math.Float64bits(b))
		}
	}
	return bits
}

// sameTrajectory fails t unless got and want hold bit-equal actors, reward
// histories and critic losses.
func sameTrajectory(t *testing.T, got, want *ParallelLearner) {
	t.Helper()
	gb, wb := actorBits(got), actorBits(want)
	if len(gb) != len(wb) {
		t.Fatalf("actor has %d parameters, want %d", len(gb), len(wb))
	}
	for i := range gb {
		if gb[i] != wb[i] {
			t.Fatalf("actor parameter %d differs: %x != %x", i, gb[i], wb[i])
		}
	}
	if len(got.RewardHistory) != len(want.RewardHistory) {
		t.Fatalf("reward history has %d entries, want %d", len(got.RewardHistory), len(want.RewardHistory))
	}
	for i, r := range got.RewardHistory {
		if r != want.RewardHistory[i] {
			t.Fatalf("reward history diverged at episode %d: %v != %v", i, r, want.RewardHistory[i])
		}
	}
	if got.Trainer.LastCriticLoss != want.Trainer.LastCriticLoss {
		t.Fatalf("critic loss diverged: %v != %v", got.Trainer.LastCriticLoss, want.Trainer.LastCriticLoss)
	}
}

// The checkpoint guarantee: training N episodes on one worker, checkpointing,
// restoring into a fresh learner (standing in for a fresh process — the
// checkpoint file is the only carried-over state), and training N more
// yields actor weights bitwise-identical to an uninterrupted 2N-episode
// run. That holds whether the checkpoint is written between Train calls or
// inside AfterEpisode (the cadence `astraea train` and the pilot use), and
// splitting the run into one Train call per episode changes nothing. The
// guarantee is strategy-independent: a learner trained under a non-default
// reward strategy must resume exactly as faithfully as the paper default.
func TestResumeDeterminismBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real episodes")
	}
	for _, reward := range []string{"", "maxmin"} {
		reward := reward
		name := reward
		if name == "" {
			name = "paper"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const n = 2
			uninterrupted := tinyLearner(7, reward)
			uninterrupted.Train(2 * n)

			resume := func(t *testing.T, path string) *ParallelLearner {
				t.Helper()
				resumed, err := LoadParallelLearner(path, 1)
				if err != nil {
					t.Fatal(err)
				}
				if resumed.Episodes != n {
					t.Fatalf("resumed at episode %d, want %d", resumed.Episodes, n)
				}
				if got := resumed.StrategyName(); got != core.MustRewardStrategy(reward).Name() {
					t.Fatalf("resumed strategy %q, want %q", got, core.MustRewardStrategy(reward).Name())
				}
				resumed.Train(n)
				return resumed
			}

			t.Run("between-train-calls", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "train.ckpt")
				interrupted := tinyLearner(7, reward)
				interrupted.Train(n)
				if err := interrupted.SaveCheckpoint(path); err != nil {
					t.Fatal(err)
				}
				sameTrajectory(t, resume(t, path), uninterrupted)
			})

			t.Run("inside-after-episode", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "train.ckpt")
				hooked := tinyLearner(7, reward)
				hooked.AfterEpisode = func(episodes int) {
					if episodes == n {
						if err := hooked.SaveCheckpoint(path); err != nil {
							t.Error(err)
						}
					}
				}
				hooked.Train(2 * n)
				sameTrajectory(t, hooked, uninterrupted)
				sameTrajectory(t, resume(t, path), uninterrupted)
			})

			t.Run("one-episode-calls", func(t *testing.T) {
				stepped := tinyLearner(7, reward)
				for i := 0; i < 2*n; i++ {
					stepped.Train(1)
				}
				sameTrajectory(t, stepped, uninterrupted)
			})
		})
	}
}

// Distinct strategies must produce distinct training trajectories from the
// same seed — otherwise the strategy plumbing is dead code and the fairness
// lab compares noise.
func TestStrategiesDivergeTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real episodes")
	}
	paper := tinyLearner(7, "")
	paper.Train(1)
	aurora := tinyLearner(7, "aurora")
	aurora.Train(1)
	if paper.RewardHistory[0] == aurora.RewardHistory[0] {
		t.Fatalf("paper and aurora episode rewards identical (%v): strategy not reaching the environment",
			paper.RewardHistory[0])
	}
}

// A checkpoint records its reward strategy and refuses to resume under a
// different one: the loader rejects a tampered or stale strategy field, and
// the byte layout pins where the identity lives.
func TestCheckpointStrategyMismatchRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a real episode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "train.ckpt")
	l := tinyLearner(11, "alpha:2")
	l.Train(1)
	if err := l.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	// Control: the untouched checkpoint loads and carries its identity.
	ok, err := LoadParallelLearner(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok.StrategyName() != "alpha:2" {
		t.Fatalf("loaded strategy %q, want alpha:2", ok.StrategyName())
	}

	// Rewrite the explicit strategy-identity field (the last occurrence of
	// the name — the first lives inside the config JSON) to a different
	// registered strategy: the loader must refuse the mismatch rather than
	// train against the wrong objective. An equal-length replacement keeps
	// the field layout valid; re-wrapping through ckpt.WriteFile refreshes
	// the container CRC so only the semantic check can reject it.
	payload, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.LastIndex(payload, []byte("alpha:2"))
	if idx < 0 {
		t.Fatal("strategy name not found in checkpoint payload")
	}
	copy(payload[idx:], []byte("alpha:3")) // same length, different identity
	mut := filepath.Join(dir, "mut.ckpt")
	if _, err := ckpt.WriteFile(mut, payload); err != nil {
		t.Fatal(err)
	}
	_, err = LoadParallelLearner(mut, 1)
	if err == nil {
		t.Fatal("checkpoint with mismatched strategy identity was loaded")
	}
	if !strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("mismatch error %q does not explain the refusal", err)
	}

	// An unresolvable name in the identity field is refused even before the
	// cross-check against the config.
	copy(payload[idx:], []byte("badbad!"))
	mut2 := filepath.Join(dir, "mut2.ckpt")
	if _, err := ckpt.WriteFile(mut2, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallelLearner(mut2, 1); err == nil {
		t.Fatal("checkpoint with unknown strategy name was loaded")
	}
}

// A learner checkpoint survives the full save/load cycle with its replay
// buffer, counters, and RNG intact — verified by checking that two loads of
// the same file train identically.
func TestLoadParallelLearnerIsPure(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real episodes")
	}
	path := filepath.Join(t.TempDir(), "train.ckpt")
	l := tinyLearner(3, "")
	l.Train(1)
	if err := l.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	a, err := LoadParallelLearner(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadParallelLearner(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Train(1)
	b.Train(1)
	ab, bb := actorBits(a), actorBits(b)
	for i := range ab {
		if ab[i] != bb[i] {
			t.Fatalf("two loads of one checkpoint trained differently at parameter %d", i)
		}
	}
}

// The config JSON in a checkpoint omits the network widths and the replay
// cap (the layout predates them); a load reads both back from the trainer
// and replay records.
func TestCheckpointReadsBackWidthsAndReplayCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "train.ckpt")
	if err := tinyLearner(3, "").SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	payload, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfgJSON := ckpt.NewDecoder(payload).Bytes(); bytes.Contains(cfgJSON, []byte("Hidden")) ||
		bytes.Contains(cfgJSON, []byte("ReplayCap")) {
		t.Fatalf("checkpoint config JSON carries the widths or the replay cap: %s", cfgJSON)
	}
	l, err := LoadParallelLearner(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(l.Cfg.Hidden, []int{16, 12}) || l.Cfg.ReplayCap != 4000 {
		t.Fatalf("loaded Hidden %v, ReplayCap %d; saved [16 12], 4000", l.Cfg.Hidden, l.Cfg.ReplayCap)
	}
}

// Truncating a checkpoint at any byte offset must be rejected outright:
// sampled offsets cover the header, the config JSON, the network weights,
// the replay region, and the trailer. (The exhaustive every-offset property
// is proven on the container in internal/ckpt; this verifies the learner
// loader surfaces it.)
func TestLoadParallelLearnerRejectsTruncation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a real episode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "train.ckpt")
	l := tinyLearner(5, "")
	l.Train(1)
	if err := l.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int{0, 1, 7, 8, 11, 19, 20, 100, len(data) / 4, len(data) / 2, len(data) - 5, len(data) - 1}
	for i := 0; i < 64; i++ {
		offsets = append(offsets, (i*2654435761)%len(data)) // deterministic spread
	}
	trunc := filepath.Join(dir, "trunc.ckpt")
	for _, n := range offsets {
		if err := os.WriteFile(trunc, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadParallelLearner(trunc, 1); err == nil {
			t.Fatalf("checkpoint truncated to %d of %d bytes was loaded", n, len(data))
		}
	}
	// Corruption: flip one bit in the middle of the payload.
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x10
	if err := os.WriteFile(trunc, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallelLearner(trunc, 1); err == nil {
		t.Fatal("corrupted checkpoint was loaded")
	}
}

// actorDigest is FNV-1a 64 over the actor's parameters in actorBits order,
// each written as its little-endian IEEE-754 bits.
func actorDigest(bits []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range bits {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestOneWorkerMatchesSerialGolden pins the one-worker training trajectory
// under both reward strategies. The digests were first captured from the
// serial learner this package used to carry beside ParallelLearner, and
// re-captured once when transitions began pairing each action with the
// state it was chosen in (TestTransitionsChain).
func TestOneWorkerMatchesSerialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real episodes")
	}
	for _, c := range []struct {
		reward string
		want   uint64
	}{{"", 0x49db2023d0d40bcc}, {"maxmin", 0xd13bc7b8df1fa6d2}} {
		l := tinyLearner(7, c.reward)
		l.Train(4)
		if got := actorDigest(actorBits(l)); got != c.want {
			t.Errorf("reward %q: actor digest %#016x after 4 episodes, want %#016x", c.reward, got, c.want)
		}
	}
}
