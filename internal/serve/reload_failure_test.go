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

// sealedArtifactBytes builds a valid sealed generation artifact for a
// deterministic actor (zero weights, output bias → Action == tanh(bias))
// and returns its bytes plus the action it serves.
func sealedArtifactBytes(t *testing.T, bias float64, meta core.PolicyMeta) ([]byte, float64) {
	t.Helper()
	cfg := core.DefaultConfig()
	net := nn.NewMLP(rand.New(rand.NewSource(3)), nn.ReLU, nn.Tanh, cfg.StateDim(), 4, 1)
	for _, l := range net.Layers {
		for i := range l.W {
			l.W[i] = 0
		}
		for i := range l.B {
			l.B[i] = 0
		}
	}
	net.Layers[len(net.Layers)-1].B[0] = bias
	path := t.TempDir() + "/sealed.policy"
	if err := core.SaveSealedPolicy(path, net, meta); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, math.Tanh(bias)
}

// TestReloadFailureObservable is the regression test for reload-failure
// observability: a candidate artifact corrupted at any byte offset — or
// truncated — must leave the old version serving uninterrupted (clients keep
// getting answers, version counter parked) while every refused attempt
// increments policy_reload_failures_total. The same path then accepts the
// intact artifact, proving the reloader was one good file away the whole
// time.
func TestReloadFailureObservable(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/actor.json"
	wantOld := writePolicyFile(t, path, 0.8, 4)
	reg := telemetry.NewRegistry()
	srv, rl, addr := newReloadableServer(t, path, reg)

	good, wantNew := sealedArtifactBytes(t, -0.8, core.PolicyMeta{Generation: 3, Parent: 2})

	// Background load across every failed reload: the point of the counter
	// is that corruption is observable *without* service interruption.
	cfg := core.DefaultConfig()
	state := make([]float64, cfg.StateDim())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var responses, clientErrs atomic.Int64
	for g := 0; g < 2; g++ {
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
				if err != nil || (res.Action != wantOld && res.Action != wantNew) {
					clientErrs.Add(1)
					return
				}
				responses.Add(1)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for responses.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if responses.Load() < 20 {
		t.Fatal("load never ramped")
	}

	offsets := []int{0, 1, 8, len(good) / 3, len(good) / 2, len(good) - 1}
	attempts := 0
	for _, off := range offsets {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x20
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := rl.Reload(srv); err == nil {
			t.Fatalf("corruption at offset %d accepted", off)
		}
		attempts++
		if v := srv.PolicyVersion(); v != 1 {
			t.Fatalf("version moved to %d on corrupt reload (offset %d)", v, off)
		}
	}
	for _, cut := range []int{0, 7, len(good) / 2, len(good) - 1} {
		if err := os.WriteFile(path, good[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := rl.Reload(srv); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
		attempts++
	}
	if v := srv.PolicyVersion(); v != 1 {
		t.Fatalf("version = %d after refused reloads, want 1", v)
	}
	snap := reg.Snapshot()
	if m, _ := snap.Get("policy_reload_failures_total"); m.Count != int64(attempts) {
		t.Fatalf("policy_reload_failures_total = %d, want %d", m.Count, attempts)
	}
	if m, _ := snap.Get("serve_reloads_total"); m.Count != 0 {
		t.Fatalf("serve_reloads_total = %d before any good reload", m.Count)
	}

	// The intact artifact goes straight through the same path: version bumps,
	// generation gauge picks up the sealed metadata, no new failures.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := rl.Reload(srv)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("version after good reload = %d, want 2", v)
	}
	close(stop)
	wg.Wait()
	if clientErrs.Load() != 0 {
		t.Fatalf("%d client errors across %d refused reloads", clientErrs.Load(), attempts)
	}
	snap = reg.Snapshot()
	if m, _ := snap.Get("policy_reload_failures_total"); m.Count != int64(attempts) {
		t.Fatalf("good reload moved the failure counter: %d", m.Count)
	}
	if m, _ := snap.Get("serve_policy_generation"); m.Value != 3 {
		t.Fatalf("serve_policy_generation = %v, want 3", m.Value)
	}

	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.Infer(state)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != wantNew || res.Version != 2 {
		t.Fatalf("post-promotion res = %+v, want action %v version 2", res, wantNew)
	}
}

// TestShardedServiceAsPolicyHost: the bare shard set satisfies the PolicyHost
// seam — version counter semantics identical to the Server's, and a Reloader
// can drive it directly with no network server at all (the embedded-pilot
// configuration).
func TestShardedServiceAsPolicyHost(t *testing.T) {
	cfg := core.DefaultConfig()
	svc := core.NewService(cfg, core.NewReferencePolicy(cfg))
	ss := NewShardedService(svc, 4)
	defer ss.Close()

	var host PolicyHost = ss
	if v := host.PolicyVersion(); v != 1 {
		t.Fatalf("initial version = %d, want 1", v)
	}
	for i := 2; i <= 5; i++ {
		if v := host.SetPolicy(core.NewReferencePolicy(cfg)); v != uint32(i) {
			t.Fatalf("SetPolicy #%d returned %d", i-1, v)
		}
	}
	if v := host.PolicyVersion(); v != 5 {
		t.Fatalf("version = %d after 4 swaps, want 5", v)
	}

	// A Reloader targeting the bare shard set: good artifact swaps, corrupt
	// artifact is refused with the version parked.
	dir := t.TempDir()
	path := dir + "/gen.policy"
	data, _ := sealedArtifactBytes(t, 0.4, core.PolicyMeta{Generation: 9})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rl := NewReloader(path, cfg)
	reg := telemetry.NewRegistry()
	rl.Instrument(reg)
	v, err := rl.Reload(host)
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 || host.PolicyVersion() != 6 {
		t.Fatalf("reload onto bare shards: version %d / %d, want 6", v, host.PolicyVersion())
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rl.Reload(host); err == nil {
		t.Fatal("truncated artifact accepted by bare-shard reloader")
	}
	if host.PolicyVersion() != 6 {
		t.Fatalf("version moved on refused reload: %d", host.PolicyVersion())
	}
	snap := reg.Snapshot()
	if m, _ := snap.Get("policy_reload_failures_total"); m.Count != 1 {
		t.Fatalf("failures = %d", m.Count)
	}
	if m, _ := snap.Get("serve_policy_generation"); m.Value != 9 {
		t.Fatalf("generation gauge = %v", m.Value)
	}
}
