package core

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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

// TestQuantizeIsDeterministic: same weights + config must compile to a
// byte-identical artifact, so redeploying a policy never produces a
// different blob hash.
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
	if string(a.Q.QuantizedBlob()) != string(b.Q.QuantizedBlob()) {
		t.Fatal("quantizing the same network twice produced different blobs")
	}
}

// TestQuantizedPolicySaveLoadBitwise round-trips the blob through disk and
// requires bitwise-identical actions (the pipeline is pure integer).
func TestQuantizedPolicySaveLoadBitwise(t *testing.T) {
	cfg := DefaultConfig()
	qp, err := QuantizeMLPPolicy(testActor(t, cfg, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "actor.aqp")
	if err := SaveQuantizedPolicy(path, qp); err != nil {
		t.Fatal(err)
	}
	back, _, err := LoadPolicy(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.(*QuantizedPolicy); !ok {
		t.Fatalf("blob loaded as %T, want *QuantizedPolicy", back)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		s := sampleState(cfg, rng)
		if a, b := qp.Action(s), back.Action(s); a != b {
			t.Fatalf("loaded policy diverges bitwise: %v vs %v", b, a)
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
// (modulo the artifact path) whether it arrives as JSON weights, a sealed
// artifact or a quantized blob, because every format goes through
// validatePolicyShape. A drift here means an operator debugging a
// mis-deployed policy sees different stories for one mistake.
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
		pathQ := filepath.Join(t.TempDir(), "actor")
		if err := SavePolicy(pathF, net); err != nil {
			t.Fatal(err)
		}
		if err := SaveSealedPolicy(pathS, net, PolicyMeta{Generation: 1}); err != nil {
			t.Fatal(err)
		}
		qm, err := nn.Quantize(net, nn.QuantizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pathQ, qm.QuantizedBlob(), 0o644); err != nil {
			t.Fatal(err)
		}

		var msgs []string
		for _, path := range []string{pathF, pathS, pathQ} {
			_, _, err := LoadPolicy(path, cfg)
			if err == nil {
				t.Fatalf("%s: %s accepted", name, path)
			}
			msgs = append(msgs, strings.ReplaceAll(err.Error(), path, "PATH"))
		}
		if msgs[0] != msgs[1] || msgs[0] != msgs[2] {
			t.Errorf("%s: formats disagree on the error:\n  json:      %s\n  sealed:    %s\n  quantized: %s",
				name, msgs[0], msgs[1], msgs[2])
		}
	}
}

// TestLoadPolicySniffsFormat covers the one loader's format sniffing: a
// blob loads as the compiled *QuantizedPolicy it contains, JSON weights as
// the float *MLPPolicy, both without metadata; compiling the JSON weights
// equals the precompiled blob bitwise; garbage is an error.
func TestLoadPolicySniffsFormat(t *testing.T) {
	cfg := DefaultConfig()
	fp := testActor(t, cfg, 10)
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "actor.json")
	if err := SavePolicy(jsonPath, fp.Net); err != nil {
		t.Fatal(err)
	}
	qp, err := QuantizeMLPPolicy(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	blobPath := filepath.Join(dir, "actor.aqp")
	if err := SaveQuantizedPolicy(blobPath, qp); err != nil {
		t.Fatal(err)
	}

	p, meta, err := LoadPolicy(blobPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, ok := p.(*QuantizedPolicy)
	if !ok || meta != nil {
		t.Fatalf("blob loaded as %T with meta %v, want *QuantizedPolicy and none", p, meta)
	}
	p, meta, err = LoadPolicy(jsonPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, ok := p.(*MLPPolicy)
	if !ok || meta != nil {
		t.Fatalf("JSON loaded as %T with meta %v, want *MLPPolicy and none", p, meta)
	}

	// Compiling on load must equal the precompiled artifact bitwise
	// (deterministic compilation), so both deployment styles serve the
	// same actions.
	fromJSON, err := QuantizeMLPPolicy(mp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		s := sampleState(cfg, rng)
		if a, b := pre.Action(s), fromJSON.Action(s); a != b {
			t.Fatalf("precompiled and quantize-on-load disagree: %v vs %v", b, a)
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
