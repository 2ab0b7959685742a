package core

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/nn"
)

// testActor builds a small random actor with the serving shape for cfg.
func testActor(t *testing.T, cfg Config, seed int64) *MLPPolicy {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return &MLPPolicy{Net: nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 64, 32, 1)}
}

// TestQuantizedPolicyMatchesFloat pins open-loop action agreement between a
// float actor and its compiled form across the calibration distribution —
// the per-decision half of the equivalence story (internal/check covers the
// closed loop).
func TestQuantizedPolicyMatchesFloat(t *testing.T) {
	cfg := DefaultConfig()
	fp := testActor(t, cfg, 1)
	qp, err := QuantizeMLPPolicy(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var worst float64
	for i := 0; i < 2000; i++ {
		s := sampleState(cfg, rng)
		d := math.Abs(qp.Action(s) - fp.Action(s))
		if d > worst {
			worst = d
		}
	}
	t.Logf("worst |Δaction| over 2000 sampled states: %.5f", worst)
	if worst > 0.02 {
		t.Fatalf("quantized policy diverges from float oracle by %.5f (> 0.02)", worst)
	}
}

// TestQuantizeIsDeterministic: same weights + config must compile to the
// same network, field for field, so a server that compiles at load always
// serves the same actions for one weights file.
func TestQuantizeIsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	fp := testActor(t, cfg, 2)
	a, err := QuantizeMLPPolicy(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := QuantizeMLPPolicy(&MLPPolicy{Net: fp.Net.Clone()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Q, b.Q) {
		t.Fatal("quantizing the same network twice produced different compiled nets")
	}
}

// TestQuantizedPolicySaveLoadBitwise: a quantized policy is deployed as its
// float weights. Saved in either format, loaded and compiled as serve does
// at load, it must give bitwise the actions of the in-process compile (the
// pipeline is pure integer and the compile deterministic).
func TestQuantizedPolicySaveLoadBitwise(t *testing.T) {
	cfg := DefaultConfig()
	fp := testActor(t, cfg, 3)
	qp, err := QuantizeMLPPolicy(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsonPath, sealedPath := filepath.Join(dir, "actor.json"), filepath.Join(dir, "gen.policy")
	if err := SavePolicy(jsonPath, fp.Net); err != nil {
		t.Fatal(err)
	}
	if err := SaveSealedPolicy(sealedPath, fp.Net, PolicyMeta{Generation: 3}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{jsonPath, sealedPath} {
		mp, _, err := LoadPolicy(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := QuantizeMLPPolicy(mp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 200; i++ {
			s := sampleState(cfg, rng)
			if a, b := qp.Action(s), back.Action(s); a != b {
				t.Fatalf("%s: compiled at load diverges bitwise: %v vs %v", path, b, a)
			}
		}
	}
}

// TestQuantizedPolicyActionZeroAllocs pins the serving hot path.
func TestQuantizedPolicyActionZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	qp, err := QuantizeMLPPolicy(testActor(t, cfg, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sampleState(cfg, rand.New(rand.NewSource(6)))
	if n := testing.AllocsPerRun(100, func() { qp.Action(s) }); n != 0 {
		t.Fatalf("Action allocates %.1f times per op, want 0", n)
	}
}

// TestMLPPolicyActionZeroAllocs pins the float policy's per-decision
// inference, the per-MTP actor call every rollout and float server makes,
// at zero allocations on the paper's actor.
func TestMLPPolicyActionZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(5))
	p := &MLPPolicy{Net: nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 256, 128, 64, 1)}
	s := sampleState(cfg, rng)
	if n := testing.AllocsPerRun(100, func() { p.Action(s) }); n != 0 {
		t.Fatalf("Action allocates %.1f times per op, want 0", n)
	}
}

// TestQuantizedPolicyCloneConcurrent: clones must evaluate independently
// and identically, per request and in batches — the property sharded
// serving relies on. Run under -race this also proves the shared compiled
// arrays are read-only and each clone's batch scratch its own.
func TestQuantizedPolicyCloneConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	qp, err := QuantizeMLPPolicy(testActor(t, cfg, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := make([][]float64, 64)
	var packed []float64
	rng := rand.New(rand.NewSource(8))
	want := make([]float64, len(states))
	for i := range states {
		states[i] = sampleState(cfg, rng)
		packed = append(packed, states[i]...)
		want[i] = qp.Action(states[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		c := ClonePolicy(qp)
		if c == Policy(qp) {
			t.Fatal("ClonePolicy returned the original instance")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, len(states))
			for round := 0; round < 3; round++ {
				for i, s := range states {
					if a := c.Action(s); a != want[i] {
						t.Errorf("clone diverges on state %d: %v vs %v", i, a, want[i])
						return
					}
				}
				n := len(states) - 13*round // 64, 51, 38: whole and partial blocks
				c.(BatchPolicy).ActionBatch(packed[:n*cfg.StateDim()], n, got)
				for i := range got[:n] {
					if got[i] != want[i] {
						t.Errorf("clone's batch of %d diverges on state %d: %v vs %v", n, i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestLoaderValidationParity is the bugfix regression: LoadPolicy must
// reject a dimension-mismatched artifact with the IDENTICAL error text
// (modulo the artifact path) whether it arrives as JSON weights or a sealed
// artifact, because both formats go through validatePolicyShape. A drift
// here means an operator debugging a mis-deployed policy sees different
// stories for one mistake.
func TestLoaderValidationParity(t *testing.T) {
	cfg := DefaultConfig()
	for name, shape := range map[string][]int{
		"wrong input width":  {cfg.StateDim() + 8, 16, 1},
		"wrong output arity": {cfg.StateDim(), 16, 2},
	} {
		rng := rand.New(rand.NewSource(9))
		net := nn.NewMLP(rng, nn.ReLU, nn.Tanh, shape...)

		pathF := filepath.Join(t.TempDir(), "actor")
		pathS := filepath.Join(t.TempDir(), "actor")
		if err := SavePolicy(pathF, net); err != nil {
			t.Fatal(err)
		}
		if err := SaveSealedPolicy(pathS, net, PolicyMeta{Generation: 1}); err != nil {
			t.Fatal(err)
		}

		var msgs []string
		for _, path := range []string{pathF, pathS} {
			_, _, err := LoadPolicy(path, cfg)
			if err == nil {
				t.Fatalf("%s: %s accepted", name, path)
			}
			msgs = append(msgs, strings.ReplaceAll(err.Error(), path, "PATH"))
		}
		if msgs[0] != msgs[1] {
			t.Errorf("%s: formats disagree on the error:\n  json:   %s\n  sealed: %s", name, msgs[0], msgs[1])
		}
	}
}

// legacyAQP1Container is the head of the compiled-network file older builds
// of `astraea quantize` wrote: a ckpt container whose payload opens with
// the "AQP1" tag.
func legacyAQP1Container() []byte {
	var e ckpt.Encoder
	e.Int64(0x41515031) // "AQP1"
	e.Int(1)
	return ckpt.Seal(e.Payload())
}

// TestLoadPolicySniffsFormat covers the one loader's format sniffing: JSON
// weights load without metadata, a sealed artifact with its PolicyMeta,
// both as the same float actor; a ckpt container holding anything else
// (a quantized blob from an older build, a training checkpoint) is refused
// with ErrNotSealedPolicy, naming the file; garbage is an error.
func TestLoadPolicySniffsFormat(t *testing.T) {
	cfg := DefaultConfig()
	fp := testActor(t, cfg, 10)
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "actor.json")
	if err := SavePolicy(jsonPath, fp.Net); err != nil {
		t.Fatal(err)
	}
	sealedPath := filepath.Join(dir, "gen.policy")
	if err := SaveSealedPolicy(sealedPath, fp.Net, PolicyMeta{Generation: 4}); err != nil {
		t.Fatal(err)
	}
	fromJSON, meta, err := LoadPolicy(jsonPath, cfg)
	if err != nil || meta != nil {
		t.Fatalf("JSON: meta %v, err %v; want none and nil", meta, err)
	}
	fromSealed, meta, err := LoadPolicy(sealedPath, cfg)
	if err != nil || meta == nil || meta.Generation != 4 {
		t.Fatalf("sealed: meta %v, err %v; want generation 4", meta, err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		s := sampleState(cfg, rng)
		if a, b := fromJSON.Action(s), fromSealed.Action(s); a != b {
			t.Fatalf("JSON and sealed forms of one actor disagree: %v vs %v", b, a)
		}
	}

	// A training checkpoint's payload opens with a length-prefixed config.
	var ckptPayload ckpt.Encoder
	ckptPayload.Bytes([]byte(`{"HistoryLen":5}`))
	for name, data := range map[string][]byte{
		"quantized blob":      legacyAQP1Container(),
		"training checkpoint": ckpt.Seal(ckptPayload.Payload()),
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-"))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadPolicy(path, cfg)
		if !errors.Is(err, ErrNotSealedPolicy) {
			t.Fatalf("%s: err %v, want ErrNotSealedPolicy", name, err)
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "-policy") {
			t.Fatalf("%s: error %q should name the file and the -policy remedy", name, err)
		}
	}

	badPath := filepath.Join(dir, "garbage")
	if err := os.WriteFile(badPath, []byte("not a policy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPolicy(badPath, cfg); err == nil {
		t.Fatal("garbage artifact accepted")
	}
}
