package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nn"
)

// refState builds a stacked state for the reference policy from scenario
// quantities.
func refState(cfg Config, tputBps, maxTputBps, lat, minLat float64) []float64 {
	ls := LocalState{
		TputRatio:     tputBps / maxTputBps,
		MaxTput:       maxTputBps / cfg.TputScale,
		LatRatio:      lat / minLat,
		MinLat:        minLat / cfg.LatScale,
		RelCwnd:       tputBps * lat / (maxTputBps * minLat),
		InflightRatio: 1,
		PacingRatio:   tputBps / maxTputBps,
	}
	out := make([]float64, 0, cfg.StateDim())
	for i := 0; i < cfg.HistoryLen; i++ {
		out = append(out, ls.Vector()...)
	}
	return out
}

func TestReferencePolicyMonotoneInDelay(t *testing.T) {
	cfg := DefaultConfig()
	p := NewReferencePolicy(cfg)
	prev := 2.0
	for _, lat := range []float64{0.0305, 0.032, 0.035, 0.040, 0.050, 0.070} {
		a := p.Action(refState(cfg, 50e6, 100e6, lat, 0.030))
		if a > prev+1e-9 {
			t.Fatalf("action not monotone decreasing in delay: a(%v) = %v after %v", lat, a, prev)
		}
		prev = a
	}
}

func TestReferencePolicyProbesUpOnEmptyQueue(t *testing.T) {
	cfg := DefaultConfig()
	p := NewReferencePolicy(cfg)
	a := p.Action(refState(cfg, 20e6, 100e6, 0.0301, 0.030))
	if a < 0.5 {
		t.Fatalf("near-empty queue action %v, want strong increase", a)
	}
}

func TestReferencePolicyBacksOffUnderHeavyLoss(t *testing.T) {
	cfg := DefaultConfig()
	p := NewReferencePolicy(cfg)
	state := refState(cfg, 50e6, 100e6, 0.035, 0.030)
	state[5] = 0.5 // loss ratio feature of the newest frame
	if a := p.Action(state); a != -1 {
		t.Fatalf("heavy congestive loss action %v, want -1", a)
	}
}

func TestReferencePolicyFairnessDirection(t *testing.T) {
	// At a shared queueing delay, the flow above the fair rate must get a
	// lower action than the flow below it — this is the §5.5 mechanism
	// that transfers bandwidth from fast to slow flows.
	cfg := DefaultConfig()
	p := NewReferencePolicy(cfg)
	lat, minLat := 0.036, 0.030
	fast := p.Action(refState(cfg, 80e6, 100e6, lat, minLat))
	slow := p.Action(refState(cfg, 20e6, 100e6, lat, minLat))
	if !(slow > fast) {
		t.Fatalf("slow flow action %v not above fast flow action %v", slow, fast)
	}
}

func TestReferencePolicyEquilibriumScalesWithFlows(t *testing.T) {
	p := NewReferencePolicy(DefaultConfig())
	d1 := p.EquilibriumQueueDelay(1, 100e6)
	d3 := p.EquilibriumQueueDelay(3, 100e6)
	if d3 <= d1 {
		t.Fatalf("equilibrium queue with 3 flows (%v) should exceed 1 flow (%v)", d3, d1)
	}
	// Faster links need less queueing for the same flow count.
	if p.EquilibriumQueueDelay(1, 1e9) >= d1 {
		t.Fatal("equilibrium queue should shrink with capacity")
	}
}

func TestReferencePolicyNoSignal(t *testing.T) {
	cfg := DefaultConfig()
	p := NewReferencePolicy(cfg)
	if a := p.Action(make([]float64, cfg.StateDim())); a != 1 {
		t.Fatalf("no-signal action %v, want probe (1)", a)
	}
	if a := p.Action(nil); a != 0 {
		t.Fatalf("empty state action %v, want 0", a)
	}
}

func TestMLPPolicyClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// A linear output layer can exceed [-1,1]; the wrapper must clamp.
	net := nn.NewMLP(rng, nn.ReLU, nn.Linear, 4, 4, 1)
	for i := range net.Layers[1].B {
		net.Layers[1].B[i] = 50
	}
	p := &MLPPolicy{Net: net}
	if a := p.Action([]float64{1, 1, 1, 1}); a != 1 {
		t.Fatalf("unclamped action %v", a)
	}
}

func TestSaveLoadPolicy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "actor.json")
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	net := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 8, 1)
	if err := SavePolicy(path, net); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadPolicy(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := refState(cfg, 50e6, 100e6, 0.036, 0.030)
	want := (&MLPPolicy{Net: net}).Action(state)
	if got := loaded.Action(state); got != want {
		t.Fatalf("loaded policy differs: %v vs %v", got, want)
	}
}

func TestLoadPolicyErrors(t *testing.T) {
	cfg := DefaultConfig()
	if _, _, err := LoadPolicy("/nonexistent/actor.json", cfg); err == nil {
		t.Fatal("expected error for missing file")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPolicy(bad, cfg); err == nil {
		t.Fatal("expected error for corrupt file")
	}
}

// A structurally valid weight file whose input width does not match the
// config must be rejected at load time, not at the first Forward (which
// panics).
func TestLoadPolicyDimensionMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "narrow.json")
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	narrow := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim()-8, 8, 1)
	if err := SavePolicy(path, narrow); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPolicy(path, cfg); err == nil {
		t.Fatal("expected error for state-dim mismatch")
	}
	wide := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 8, 2)
	if err := SavePolicy(path, wide); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPolicy(path, cfg); err == nil {
		t.Fatal("expected error for action-dim mismatch")
	}
}

// SavePolicy must be atomic: saving over an existing file either keeps the
// old contents or installs the complete new ones, and never leaves temp
// litter behind on success.
func TestSavePolicyAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "actor.json")
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(4))
	first := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 8, 1)
	if err := SavePolicy(path, first); err != nil {
		t.Fatal(err)
	}
	second := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 8, 1)
	if err := SavePolicy(path, second); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadPolicy(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := refState(cfg, 50e6, 100e6, 0.036, 0.030)
	if got, want := loaded.Action(state), (&MLPPolicy{Net: second}).Action(state); got != want {
		t.Fatalf("loaded policy is not the latest save: %v vs %v", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after save, want just the policy: %v", len(entries), entries)
	}
}

func TestDistillPolicyImitatesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("distillation is seconds of CPU")
	}
	cfg := DefaultConfig()
	cfg.Hidden = []int{64, 32}
	opts := DefaultDistillOptions()
	opts.Samples = 4000
	opts.Epochs = 12
	net, loss := DistillPolicy(cfg, opts)
	if loss > 0.05 {
		t.Fatalf("imitation MSE %v, want < 0.05", loss)
	}
	// The distilled network must preserve the fairness-critical ordering.
	p := &MLPPolicy{Net: net}
	lat, minLat := 0.036, 0.030
	fast := p.Action(refState(cfg, 80e6, 100e6, lat, minLat))
	slow := p.Action(refState(cfg, 20e6, 100e6, lat, minLat))
	if !(slow > fast) {
		t.Fatalf("distilled policy lost fairness ordering: slow %v fast %v", slow, fast)
	}
}
