package serve

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/telemetry"
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

// TestHotReloadQuantizedBlob: an operator who overwrites the served JSON
// snapshot with a compiled blob from an older `astraea quantize` gets a
// refused reload, by name (core.ErrNotSealedPolicy), counted on
// policy_reload_failures_total, while the booted policy keeps serving at
// version 1. The poller is format-agnostic among the formats that remain: a
// sealed artifact written over the same path next is picked up and served
// compiled, bitwise the locally quantized copy.
func TestHotReloadQuantizedBlob(t *testing.T) {
	cfg := core.DefaultConfig()
	fp := newQuantTestActor(cfg, 31)
	dir := t.TempDir()
	path := dir + "/actor"
	if err := core.SavePolicy(path, fp.Net); err != nil {
		t.Fatal(err)
	}

	rl := NewReloader(path, cfg)
	reg := telemetry.NewRegistry()
	rl.Instrument(reg)
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

	var e ckpt.Encoder
	e.Int64(0x41515031) // the old blob's "AQP1" payload tag
	e.Int(1)
	if err := ckpt.WriteAtomic(path, ckpt.Seal(e.Payload()), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m, _ := reg.Snapshot().Get("policy_reload_failures_total"); m.Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never tried the blob")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := srv.PolicyVersion(); v != 1 {
		t.Fatalf("refused blob moved the policy version to %d", v)
	}
	if _, _, err := core.LoadPolicy(path, cfg); !errors.Is(err, core.ErrNotSealedPolicy) {
		t.Fatalf("blob load: err %v, want core.ErrNotSealedPolicy", err)
	}

	next := newQuantTestActor(cfg, 32)
	if err := core.SaveSealedPolicy(path, next.Net, core.PolicyMeta{Generation: 5}); err != nil {
		t.Fatal(err)
	}
	for srv.PolicyVersion() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never picked up the sealed artifact")
		}
		time.Sleep(5 * time.Millisecond)
	}
	qp, err := core.QuantizeMLPPolicy(next, cfg)
	if err != nil {
		t.Fatal(err)
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
			t.Fatalf("served action %v, locally quantized %v (state %d)", res.Action, got, i)
		}
	}
}
