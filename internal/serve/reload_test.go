package serve

import (
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// writePolicyFile saves a deterministic actor to path: zero weights with an
// output bias, so Action == tanh(bias) on every input. Returns that action.
func writePolicyFile(t *testing.T, path string, bias float64, hidden int) float64 {
	t.Helper()
	cfg := core.DefaultConfig()
	net := nn.NewMLP(rand.New(rand.NewSource(1)), nn.ReLU, nn.Tanh, cfg.StateDim(), hidden, 1)
	for _, l := range net.Layers {
		for i := range l.W {
			l.W[i] = 0
		}
		for i := range l.B {
			l.B[i] = 0
		}
	}
	net.Layers[len(net.Layers)-1].B[0] = bias
	if err := core.SavePolicy(path, net); err != nil {
		t.Fatal(err)
	}
	return math.Tanh(bias)
}

// newReloadableServer boots a server from the artifact at path the way the
// serve daemon does: through the Reloader that later reloads it.
func newReloadableServer(t *testing.T, path string, reg *telemetry.Registry) (*Server, *Reloader, string) {
	t.Helper()
	cfg := core.DefaultConfig()
	rl := NewReloader(path, cfg)
	// These tests pin float-path reload semantics bitwise (actions must equal
	// math.Tanh of the bias exactly); reload_quant_test.go covers the
	// quantized default.
	rl.Quantize = false
	if reg != nil {
		rl.Instrument(reg)
	}
	policy, err := rl.Load()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(core.NewService(cfg, policy), cfg, Options{Deadline: time.Second})
	if reg != nil {
		srv.Instrument(reg)
	}
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rl.Stop(); srv.Close() })
	return srv, rl, addr.String()
}

// TestHotReloadMidRun is the acceptance test for hot reload: with client
// load in flight, swapping the weights file and reloading must bump the
// policy version and change the served action without a single dropped or
// errored request.
func TestHotReloadMidRun(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/actor.json"
	wantA := writePolicyFile(t, path, 1.0, 4)
	wantB := math.Tanh(-1.0)

	reg := telemetry.NewRegistry()
	srv, rl, addr := newReloadableServer(t, path, reg)

	cfg := core.DefaultConfig()
	state := make([]float64, cfg.StateDim())

	// Background load: 4 clients hammering Infer until told to stop.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var responses, errors atomic.Int64
	for g := 0; g < 4; g++ {
		client, err := Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := client.Infer(state)
				if err != nil {
					errors.Add(1)
					return
				}
				if res.Action != wantA && res.Action != wantB {
					errors.Add(1)
					return
				}
				responses.Add(1)
			}
		}()
	}

	// Let traffic flow, then swap the weights file and reload mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for responses.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if responses.Load() < 50 {
		t.Fatal("load never ramped")
	}
	writePolicyFile(t, path, -1.0, 4)
	v, err := rl.Reload(srv)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("version after reload = %d, want 2", v)
	}

	// More traffic on the new policy, then stop.
	post := responses.Load()
	for responses.Load() < post+50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if errors.Load() != 0 {
		t.Fatalf("%d requests dropped/errored across the reload", errors.Load())
	}

	// The served policy is now B, stamped with the new version.
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.Infer(state)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Action != wantB {
		t.Fatalf("post-reload res = %+v, want version 2 action %v", res, wantB)
	}
	if srv.PolicyVersion() != 2 {
		t.Fatalf("PolicyVersion = %d", srv.PolicyVersion())
	}
	snap := reg.Snapshot()
	if m, _ := snap.Get("serve_reloads_total"); m.Count != 1 {
		t.Fatalf("reloads = %d", m.Count)
	}
	if m, _ := snap.Get("serve_policy_version"); m.Value != 2 {
		t.Fatalf("policy_version gauge = %v", m.Value)
	}
	if err := srv.Shutdown(contextWithTimeout(t, 5*time.Second)); err != nil {
		t.Fatalf("drain after reload: %v", err)
	}
}

// TestReloadWatcher: the mtime/size poller picks up a new snapshot without
// an explicit trigger.
func TestReloadWatcher(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/actor.json"
	writePolicyFile(t, path, 0.5, 4)
	srv, rl, _ := newReloadableServer(t, path, nil)

	rl.Interval = 10 * time.Millisecond
	rl.Watch(srv)
	// A different hidden width changes the file size, so the poll triggers
	// even on filesystems with coarse mtime granularity.
	writePolicyFile(t, path, -0.5, 6)
	deadline := time.Now().Add(10 * time.Second)
	for srv.PolicyVersion() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never picked up the new snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rl.Stop()
}

// TestReloadRejectsBadFile: an invalid snapshot is rejected, counted, and
// the previous policy keeps serving.
func TestReloadRejectsBadFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/actor.json"
	wantA := writePolicyFile(t, path, 1.0, 4)
	reg := telemetry.NewRegistry()
	srv, rl, addr := newReloadableServer(t, path, reg)

	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rl.Reload(srv); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if srv.PolicyVersion() != 1 {
		t.Fatalf("version moved on failed reload: %d", srv.PolicyVersion())
	}
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.Infer(make([]float64, core.DefaultConfig().StateDim()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != wantA || res.Version != 1 {
		t.Fatalf("old policy not serving after failed reload: %+v", res)
	}
	snap := reg.Snapshot()
	if m, _ := snap.Get("serve_reload_errors_total"); m.Count != 1 {
		t.Fatalf("reload_errors = %d", m.Count)
	}
	// A wrong-dimension actor is rejected too (validated against cfg).
	cfg := core.DefaultConfig()
	net := nn.NewMLP(rand.New(rand.NewSource(2)), nn.ReLU, nn.Tanh, cfg.StateDim()+8, 4, 1)
	if err := core.SavePolicy(path, net); err != nil {
		t.Fatal(err)
	}
	if _, err := rl.Reload(srv); err == nil {
		t.Fatal("wrong-dimension snapshot accepted")
	}
}

// TestBootReportsGeneration is the regression test for the boot-generation
// bug: a server booted from a sealed artifact of generation 5 must report
// serve_policy_generation 5 from the first scrape, with the policy version
// still at 1. The pilot confirms promotions by reading that gauge, so a
// restarted daemon that reported 0 until its next reload would disown the
// generation it serves.
func TestBootReportsGeneration(t *testing.T) {
	path := t.TempDir() + "/gen5.policy"
	data, want := sealedArtifactBytes(t, 0.6, core.PolicyMeta{Generation: 5, Parent: 4})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	_, _, addr := newReloadableServer(t, path, reg)

	snap := reg.Snapshot()
	if m, _ := snap.Get("serve_policy_generation"); m.Value != 5 {
		t.Fatalf("serve_policy_generation = %v at boot, want 5", m.Value)
	}
	if m, _ := snap.Get("serve_policy_version"); m.Value != 1 {
		t.Fatalf("serve_policy_version = %v at boot, want 1", m.Value)
	}
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.Infer(make([]float64, core.DefaultConfig().StateDim()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != want || res.Version != 1 {
		t.Fatalf("boot res = %+v, want action %v version 1", res, want)
	}
}
