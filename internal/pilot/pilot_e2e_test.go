package pilot

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tournament"
)

// permissiveFloors always pass a functioning candidate (ratios near zero,
// RTT ceiling near infinite) — they isolate the promotion machinery from
// whether two tiny random-ish nets happen to tie on the suite.
func permissiveFloors() tournament.GateFloors {
	return tournament.GateFloors{UtilRatio: 1e-9, JainRatio: 1e-9, RTTRatio: 1e9}
}

func fastGate() tournament.GateConfig {
	return tournament.GateConfig{
		Families: []string{"steady"}, Flows: 3, Duration: 0.4, Seed: 7,
		Floors: permissiveFloors(),
	}
}

func pilotLearner(t *testing.T, seed int64) *env.ParallelLearner {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.BatchSize = 16
	cfg.Hidden = []int{8, 8}
	cfg.ReplayCap = 5000
	dist := env.DefaultTrainingDistribution()
	dist.MaxFlows = 2
	dist.EpisodeDuration = 3
	return env.NewParallelLearner(cfg, dist, seed, 2)
}

// pilotFleet is one live serving fleet for an e2e test: a real TCP server
// plus background clients that verify the two fleet invariants the pilot
// must never break — no request errors, and a per-connection policy version
// that never moves backwards.
type pilotFleet struct {
	srv       *serve.Server
	reg       *telemetry.Registry
	stop      chan struct{}
	wg        sync.WaitGroup
	responses atomic.Int64
	errors    atomic.Int64
	regressed atomic.Int64 // version went backwards on a connection
}

func startFleet(t *testing.T, clients int) *pilotFleet {
	t.Helper()
	cfg := core.DefaultConfig()
	svc := core.NewService(cfg, core.NewReferencePolicy(cfg))
	f := &pilotFleet{
		reg:  telemetry.NewRegistry(),
		stop: make(chan struct{}),
	}
	f.srv = serve.NewServer(svc, cfg, serve.Options{Deadline: time.Second, Shards: 2})
	f.srv.Instrument(f.reg)
	addr, err := f.srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	state := make([]float64, cfg.StateDim())
	for i := 0; i < clients; i++ {
		client, err := serve.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer client.Close()
			var lastVersion uint32
			for {
				select {
				case <-f.stop:
					return
				default:
				}
				res, err := client.Infer(state)
				if err != nil {
					f.errors.Add(1)
					return
				}
				if res.Version < lastVersion {
					f.regressed.Add(1)
					return
				}
				lastVersion = res.Version
				f.responses.Add(1)
			}
		}()
	}
	t.Cleanup(func() { f.srv.Close() })
	return f
}

// finish stops the clients and asserts the fleet invariants held.
func (f *pilotFleet) finish(t *testing.T) {
	t.Helper()
	close(f.stop)
	f.wg.Wait()
	if n := f.errors.Load(); n != 0 {
		t.Fatalf("%d client requests errored during the pilot run", n)
	}
	if n := f.regressed.Load(); n != 0 {
		t.Fatalf("policy version moved backwards on %d connections", n)
	}
	if f.responses.Load() == 0 {
		t.Fatal("no traffic flowed")
	}
}

func (f *pilotFleet) counter(t *testing.T, name string) int64 {
	t.Helper()
	m, _ := f.reg.Snapshot().Get(name)
	return m.Count
}

func (f *pilotFleet) gauge(t *testing.T, name string) float64 {
	t.Helper()
	m, _ := f.reg.Snapshot().Get(name)
	return m.Value
}

// TestPilotPromotionEndToEnd is the happy path: train under live traffic,
// pass the gate, seal a generation, and hot-promote it to the fleet —
// version counter monotonic, zero dropped requests, generation telemetry
// advancing, checkpoint series pinned.
func TestPilotPromotionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop e2e")
	}
	fleet := startFleet(t, 3)
	dir := t.TempDir()
	servingPath := filepath.Join(dir, "serving.policy")
	ckptPath := filepath.Join(dir, "train.ckpt")

	store, err := OpenStore(filepath.Join(dir, "gens"), 4)
	if err != nil {
		t.Fatal(err)
	}
	learner := pilotLearner(t, 1)
	sup, err := New(Options{
		Store:            store,
		Learner:          learner,
		Target:           NewHostTarget(fleet.srv, servingPath, learner.Cfg, fleet.reg),
		EpisodesPerRound: 2,
		Rounds:           1,
		Gate:             fastGate(),
		// Probation that cannot trigger on a healthy in-process fleet.
		Health:          HealthPolicy{ProbationSeconds: 0.3, IntervalSeconds: 0.1, MinRequests: 25, MaxDegradedRate: 0.9},
		CheckpointPath:  ckptPath,
		CheckpointEvery: 1,
		CheckpointKeep:  2,
		Registry:        fleet.reg,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fleet.finish(t)

	// Lineage: boot baseline (gen 1) then the trained candidate (gen 2).
	cur, ok := store.Current()
	if !ok || cur.Gen != 2 || cur.Parent != 1 {
		t.Fatalf("current generation %+v ok=%v", cur, ok)
	}
	// Fleet: two promotions over the boot version (1 → 2 → 3), and the
	// sealed metadata reached the serving telemetry.
	if v := fleet.srv.PolicyVersion(); v != 3 {
		t.Fatalf("policy version %d, want 3 (boot + 2 promotions)", v)
	}
	if g := fleet.gauge(t, "serve_policy_generation"); g != 2 {
		t.Fatalf("serve_policy_generation %v, want 2", g)
	}
	if g := fleet.gauge(t, "pilot_generation"); g != 2 {
		t.Fatalf("pilot_generation %v, want 2", g)
	}
	if n := fleet.counter(t, "pilot_promotions_total"); n != 2 {
		t.Fatalf("promotions %d, want 2", n)
	}
	if n := fleet.counter(t, "pilot_rollbacks_total"); n != 0 {
		t.Fatalf("unexpected rollbacks: %d", n)
	}
	if n := fleet.counter(t, "policy_reload_failures_total"); n != 0 {
		t.Fatalf("reload failures on clean promotions: %d", n)
	}
	// The promoted checkpoint is pinned so rotation preserves its lineage.
	// (The serving artifact is the quantized compile of gen 2's seal.)
	if pin := readPinForTest(ckptPath); pin == "" {
		t.Fatal("promotion did not pin its checkpoint")
	}
	// The served policy is the sealed candidate, quantize-on-promote.
	_, meta, err := core.LoadPolicy(store.Path(cur), learner.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Episodes != learner.Episodes {
		t.Fatalf("sealed episodes %d, learner %d", meta.Episodes, learner.Episodes)
	}
}

// TestPilotGateRefusal: a candidate that cannot clear the floors is never
// promoted — the fleet stays on the boot generation, and the refusal is
// observable on pilot_gate_failures_total.
func TestPilotGateRefusal(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop e2e")
	}
	fleet := startFleet(t, 2)
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "gens"), 4)
	if err != nil {
		t.Fatal(err)
	}
	learner := pilotLearner(t, 2)
	gate := fastGate()
	gate.Floors = tournament.GateFloors{MinJain: 1.5} // Jain index cannot exceed 1
	sup, err := New(Options{
		Store: store, Learner: learner,
		Target:           NewHostTarget(fleet.srv, filepath.Join(dir, "serving.policy"), learner.Cfg, fleet.reg),
		EpisodesPerRound: 2, Rounds: 1,
		Gate:     gate,
		Health:   HealthPolicy{ProbationSeconds: 0.1, IntervalSeconds: 0.05, MinRequests: 1 << 30},
		Registry: fleet.reg,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fleet.finish(t)

	cur, ok := store.Current()
	if !ok || cur.Gen != 1 || cur.Note != "boot baseline" {
		t.Fatalf("fleet moved off the boot generation: %+v", cur)
	}
	if n := fleet.counter(t, "pilot_gate_failures_total"); n != 1 {
		t.Fatalf("gate failures %d, want 1", n)
	}
	if n := fleet.counter(t, "pilot_promotions_total"); n != 1 { // boot only
		t.Fatalf("promotions %d, want 1 (boot only)", n)
	}
	if v := fleet.srv.PolicyVersion(); v != 2 { // boot promotion only
		t.Fatalf("policy version %d, want 2", v)
	}
}

// regressingTarget wraps a real target but scripts the health feed: the
// first sample is the promotion baseline, later samples show the fleet
// drowning in fallbacks. The promotion/rollback transport stays fully real.
type regressingTarget struct {
	inner Target
	mu    sync.Mutex
	calls int
}

func (rt *regressingTarget) Promote(path string, meta core.PolicyMeta) error {
	return rt.inner.Promote(path, meta)
}

func (rt *regressingTarget) Health() (HealthSample, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.calls++
	if rt.calls == 1 {
		return HealthSample{Requests: 1000, Fallbacks: 10}, nil
	}
	// Every later window: 500 more requests, 400 of them degraded.
	n := int64(rt.calls - 1)
	return HealthSample{Requests: 1000 + 500*n, Fallbacks: 10 + 400*n, DeadlineMisses: 300 * n}, nil
}

// TestPilotHealthRollback: a candidate that passes the gate but degrades
// the live fleet is rolled back automatically — the parent generation's
// sealed artifact is re-promoted (version moves forward, never back), the
// manifest marks the bad generation, and the rollback is observable on
// pilot_rollbacks_total and the generation gauges.
func TestPilotHealthRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop e2e")
	}
	fleet := startFleet(t, 3)
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "gens"), 4)
	if err != nil {
		t.Fatal(err)
	}
	learner := pilotLearner(t, 3)
	host := NewHostTarget(fleet.srv, filepath.Join(dir, "serving.policy"), learner.Cfg, fleet.reg)
	sup, err := New(Options{
		Store: store, Learner: learner,
		Target:           &regressingTarget{inner: host},
		EpisodesPerRound: 2, Rounds: 1,
		Gate:     fastGate(),
		Health:   HealthPolicy{ProbationSeconds: 2, IntervalSeconds: 0.05, MinRequests: 50, MaxDegradedRate: 0.20},
		Registry: fleet.reg,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fleet.finish(t)

	// The fleet is back on the boot generation; the bad one is marked.
	cur, ok := store.Current()
	if !ok || cur.Gen != 1 {
		t.Fatalf("current after rollback %+v ok=%v", cur, ok)
	}
	gens := store.Generations()
	if len(gens) != 2 || gens[1].Gen != 2 || gens[1].Status != StatusRolledBack {
		t.Fatalf("lineage after rollback: %+v", gens)
	}
	if n := fleet.counter(t, "pilot_rollbacks_total"); n != 1 {
		t.Fatalf("rollbacks %d, want 1", n)
	}
	// Boot(→2), candidate(→3), rollback re-promotion(→4): forward only.
	if v := fleet.srv.PolicyVersion(); v != 4 {
		t.Fatalf("policy version %d, want 4", v)
	}
	if g := fleet.gauge(t, "serve_policy_generation"); g != 1 {
		t.Fatalf("serve_policy_generation %v, want 1 after rollback", g)
	}
	if g := fleet.gauge(t, "pilot_generation"); g != 1 {
		t.Fatalf("pilot_generation %v, want 1 after rollback", g)
	}
}

// readPinForTest reads a checkpoint promotion pin without importing ckpt in
// every assertion site.
func readPinForTest(base string) string {
	return ckpt.ReadPin(base)
}
