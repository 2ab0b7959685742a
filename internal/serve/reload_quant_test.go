package serve

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
)

// newQuantTestActor builds a small random actor with the serving shape.
func newQuantTestActor(cfg core.Config, seed int64) *core.MLPPolicy {
	rng := rand.New(rand.NewSource(seed))
	return &core.MLPPolicy{Net: nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 16, 8, 1)}
}

// TestReloadQuantizesByDefault: a Reloader fresh from NewReloader compiles
// JSON weights to the fixed-point form, at boot and on reload — and because compilation is
// deterministic, the served actions are bitwise those of a locally
// quantized copy of the same weights.
func TestReloadQuantizesByDefault(t *testing.T) {
	cfg := core.DefaultConfig()
	fp := newQuantTestActor(cfg, 21)
	dir := t.TempDir()
	path := dir + "/actor.json"
	if err := core.SavePolicy(path, fp.Net); err != nil {
		t.Fatal(err)
	}

	rl := NewReloader(path, cfg)
	if !rl.Quantize {
		t.Fatal("NewReloader should default Quantize to true")
	}
	boot, err := rl.Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := boot.(*core.QuantizedPolicy); !ok {
		t.Fatalf("boot policy is %T, want the quantized compile", boot)
	}
	srv := NewServer(core.NewService(cfg, boot), cfg, Options{Deadline: time.Second})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// New snapshot: the reload must land its quantized compilation.
	next := newQuantTestActor(cfg, 22)
	if err := core.SavePolicy(path, next.Net); err != nil {
		t.Fatal(err)
	}
	if v, err := rl.Reload(srv); err != nil || v != 2 {
		t.Fatalf("reload: version %d, err %v", v, err)
	}

	want, err := core.QuantizeMLPPolicy(next, cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20; i++ {
		s := core.SampleCalibrationState(cfg, rng)
		res, err := client.Infer(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := want.Action(s); res.Action != got {
			t.Fatalf("served action %v, locally quantized %v (state %d)", res.Action, got, i)
		}
	}
}

// TestHotReloadQuantizedBlob: the poller path is format-agnostic — an
// operator can overwrite the JSON snapshot in place with a precompiled
// blob from `astraea quantize` and the watcher swaps it in.
func TestHotReloadQuantizedBlob(t *testing.T) {
	cfg := core.DefaultConfig()
	fp := newQuantTestActor(cfg, 31)
	dir := t.TempDir()
	path := dir + "/actor"
	if err := core.SavePolicy(path, fp.Net); err != nil {
		t.Fatal(err)
	}

	rl := NewReloader(path, cfg)
	boot, err := rl.Load()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(core.NewService(cfg, boot), cfg, Options{Deadline: time.Second})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rl.Interval = 10 * time.Millisecond
	rl.Watch(srv)
	defer rl.Stop()

	next := newQuantTestActor(cfg, 32)
	qp, err := core.QuantizeMLPPolicy(next, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveQuantizedPolicy(path, qp); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.PolicyVersion() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never picked up the blob")
		}
		time.Sleep(5 * time.Millisecond)
	}

	client, err := Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 20; i++ {
		s := core.SampleCalibrationState(cfg, rng)
		res, err := client.Infer(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := qp.Action(s); res.Action != got {
			t.Fatalf("served action %v, blob policy %v (state %d)", res.Action, got, i)
		}
	}
}
