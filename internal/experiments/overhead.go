package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
)

// ExpFigure16 reproduces the overhead study (§5.4). Part (a) measures
// per-decision inference cost of the policy network; part (b) contrasts the
// paper's two serving architectures under concurrent flows: per-flow
// inference servers (each flow pays a full model evaluation under its own
// lock, as Orca's per-flow server instances do) versus Astraea's shared
// batch service.
func ExpFigure16(o Opts) []*Table {
	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(16))
	// A paper-sized actor (256/128/64) for realistic per-inference cost.
	net := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 256, 128, 64, 1)
	policy := &core.MLPPolicy{Net: net}
	state := make([]float64, cfg.StateDim())
	for i := range state {
		state[i] = rng.Float64()
	}

	// Part (a): single-decision latency, float actor vs its fixed-point
	// compilation (the serving default; DESIGN.md §12).
	ta := &Table{
		ID:      "fig16a",
		Title:   "Per-decision inference cost (256/128/64 MLP actor)",
		Columns: []string{"metric", "value"},
	}
	qpolicy, err := core.QuantizeMLPPolicy(policy, cfg)
	if err != nil {
		panic(err) // shape is valid by construction
	}
	const reps = 2000
	start := time.Now()
	for i := 0; i < reps; i++ {
		policy.Action(state)
	}
	perInfer := time.Since(start) / reps
	start = time.Now()
	for i := 0; i < reps; i++ {
		qpolicy.Action(state)
	}
	perInferQ := time.Since(start) / reps
	ta.Rows = append(ta.Rows,
		[]string{"per_inference_float", perInfer.String()},
		[]string{"per_inference_quantized", perInferQ.String()},
		[]string{"quantized_speedup", f2(float64(perInfer) / float64(perInferQ))},
		[]string{"decisions_per_core_per_sec_float", fmt.Sprintf("%.0f", float64(time.Second)/float64(perInfer))},
		[]string{"decisions_per_core_per_sec_quantized", fmt.Sprintf("%.0f", float64(time.Second)/float64(perInferQ))},
		[]string{"decisions_needed_per_flow_per_sec(MTP 30ms)", "33"},
	)
	ta.Note = "paper: Astraea's C++ service cuts CPU 30% vs Orca; the quantized rows are this repo's deployment-form saving on top (part (b) contrasts the serving architectures)"

	// Part (b): serving architectures under concurrency.
	tb := &Table{
		ID:      "fig16b",
		Title:   "Scalability: total serving time for one decision round per flow",
		Columns: []string{"flows", "per_flow_servers", "batch_service", "speedup"},
	}
	for _, n := range []int{10, 50, 100, 500, 1000} {
		perFlow := timePerFlowServers(cfg, n, state, rng)
		batch := timeBatchService(o, cfg, policy, n, state)
		t := "-"
		if batch > 0 {
			t = f2(float64(perFlow) / float64(batch))
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprint(n), perFlow.String(), batch.String(), t,
		})
	}
	tb.Note = "paper: Orca's per-flow servers scale linearly and exhaust an 80-core box before 1000 flows; the batch service scales sub-linearly"
	return []*Table{ta, tb}
}

// timePerFlowServers emulates the per-flow-server architecture: every flow
// owns a mutex-guarded model instance; a decision round evaluates each
// model, paying per-instance synchronization and cold caches.
func timePerFlowServers(cfg core.Config, n int, state []float64, rng *rand.Rand) time.Duration {
	type server struct {
		mu  sync.Mutex
		net *nn.MLP
	}
	servers := make([]*server, n)
	base := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 256, 128, 64, 1)
	for i := range servers {
		servers[i] = &server{net: base.Clone()}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, sv := range servers {
		wg.Add(1)
		go func(sv *server) {
			defer wg.Done()
			sv.mu.Lock()
			sv.net.Forward(state)
			sv.mu.Unlock()
		}(sv)
	}
	wg.Wait()
	return time.Since(start)
}

// timeBatchService routes the same decision round through one shared batch
// service. With telemetry attached, the service's batch-size and queue-wait
// histograms land in the experiment registry — the Fig. 16b observability.
func timeBatchService(o Opts, cfg core.Config, policy core.Policy, n int, state []float64) time.Duration {
	svc := core.NewService(cfg, policy)
	svc.MaxBatch = n
	if o.Telemetry != nil {
		svc.Instrument(o.Telemetry)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			svc.Infer(state)
		}()
	}
	wg.Wait()
	svc.Close()
	return time.Since(start)
}
