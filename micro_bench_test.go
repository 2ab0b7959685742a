package repro

// Micro-benchmarks for the substrates: simulator event throughput, link
// packet processing, policy inference, and trainer updates. These bound
// how much emulation a wall-clock second buys, which matters when scaling
// the figure experiments.

import (
	"math/rand"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func BenchmarkSimulatorEvents(b *testing.B) {
	b.ReportAllocs()
	s := sim.New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(0.001, tick)
		}
	}
	s.After(0, tick)
	b.ResetTimer()
	s.Run(1e18)
}

// BenchmarkSimulatorReschedule is BenchmarkSimulatorEvents with 4,096
// events pending and one timer re-armed per dispatched event, the way every
// ack pushes its flow's RTO back: the delta against BenchmarkSimulatorEvents
// is the cost of an in-place re-key in a deep queue.
func BenchmarkSimulatorReschedule(b *testing.B) {
	b.ReportAllocs()
	s := sim.New(1)
	for i := 0; i < 4094; i++ {
		s.At(1e12+float64(i), func() {})
	}
	var rto sim.Timer
	noop := func() {}
	var tick func()
	n := 0
	tick = func() {
		n++
		s.Reschedule(&rto, s.Now()+0.2, noop)
		if n < b.N {
			s.After(0.001, tick)
		}
	}
	s.After(0, tick)
	b.ResetTimer()
	s.Run(1e9)
}

func BenchmarkLinkPacketForwarding(b *testing.B) {
	b.ReportAllocs()
	s := sim.New(1)
	l := netem.NewLink(s, "l", netem.LinkConfig{RateBps: 1e12, Delay: 0.001, QueueBytes: 1 << 30})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netem.SendOver(&netem.Packet{Size: 1500}, []netem.Hop{l}, func(*netem.Packet) {}, nil)
		if i%1024 == 0 {
			s.Run(s.Now() + 1)
		}
	}
	s.Run(s.Now() + 10)
}

// warmCubicFlow builds one Cubic flow saturating a 100 Mbps, 30 ms
// dumbbell and runs it past slow start; each further simulated second is
// ≈8.3k packets of events. obs are registered on the flow before it starts.
func warmCubicFlow(obs ...transport.FlowObserver) *sim.Simulator {
	s := sim.New(1)
	d := netem.NewDumbbell(s, netem.DumbbellConfig{
		RateBps: 100e6, BaseRTT: 0.030, QueueBytes: netem.BDPBytes(100e6, 0.030),
	})
	f := transport.NewFlow(s, transport.FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc.MustNew("cubic")})
	for _, o := range obs {
		f.Observe(o)
	}
	f.Start()
	s.Run(2)
	return s
}

// BenchmarkFlowSecond measures wall time per simulated second of
// warmCubicFlow's flow.
func BenchmarkFlowSecond(b *testing.B) {
	b.ReportAllocs()
	s := warmCubicFlow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + 1)
	}
}

// BenchmarkFlowSecondTelemetry is BenchmarkFlowSecond with every layer
// instrumented; the delta against the plain benchmark is the real hot-path
// cost of enabled telemetry (a handful of atomic adds per packet).
func BenchmarkFlowSecondTelemetry(b *testing.B) {
	b.ReportAllocs()
	reg := telemetry.NewRegistry()
	s := sim.New(1)
	s.Instrument(reg)
	d := netem.NewDumbbell(s, netem.DumbbellConfig{
		RateBps: 100e6, BaseRTT: 0.030, QueueBytes: netem.BDPBytes(100e6, 0.030),
	})
	d.Bottleneck.Metrics = netem.NewLinkMetrics(reg)
	f := transport.NewFlow(s, transport.FlowConfig{
		ID: 0, Path: d.FlowPath(0), CC: cc.MustNew("cubic"),
		Metrics: transport.NewMetrics(reg),
	})
	f.Start()
	s.Run(2) // warm past slow start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + 1)
	}
}

func BenchmarkReferencePolicyInference(b *testing.B) {
	b.ReportAllocs()
	cfg := core.DefaultConfig()
	p := core.NewReferencePolicy(cfg)
	state := make([]float64, cfg.StateDim())
	for i := range state {
		state[i] = 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Action(state)
	}
}

func BenchmarkMLPPolicyInference(b *testing.B) {
	b.ReportAllocs()
	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	net := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 256, 128, 64, 1)
	p := &core.MLPPolicy{Net: net}
	state := make([]float64, cfg.StateDim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Action(state)
	}
}

// BenchmarkQuantizedPolicyInference is the fixed-point counterpart of
// BenchmarkMLPPolicyInference on the identical network shape — the pair
// behind the speedup table in DESIGN.md §12.
func BenchmarkQuantizedPolicyInference(b *testing.B) {
	b.ReportAllocs()
	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	net := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 256, 128, 64, 1)
	p, err := core.QuantizeMLPPolicy(&core.MLPPolicy{Net: net}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	state := make([]float64, cfg.StateDim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Action(state)
	}
}

// BenchmarkTD3Update is one update at the paper's shape (256/128/64 hidden,
// batch 192), the shape train_td3 and `astraea train` run. It is large enough
// for Update to fork its helper goroutine.
func BenchmarkTD3Update(b *testing.B) {
	benchTD3Update(b, rl.DefaultConfig(40, core.GlobalFeatureDim, 1))
}

// BenchmarkTD3UpdateFairnessLab is one update at the fairness lab's shape
// (16/12 hidden, batch 48), small enough that Update runs the helper's half
// inline rather than pay for a fork.
func BenchmarkTD3UpdateFairnessLab(b *testing.B) {
	cfg := rl.DefaultConfig(40, core.GlobalFeatureDim, 1)
	cfg.Hidden = []int{16, 12}
	cfg.Batch = 48
	benchTD3Update(b, cfg)
}

func benchTD3Update(b *testing.B, cfg rl.Config) {
	b.ReportAllocs()
	tr := rl.NewTrainer(cfg, 1)
	rb := rl.NewReplayBuffer(10000)
	rng := rand.New(rand.NewSource(1))
	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	for i := 0; i < 2000; i++ {
		rb.Add(rl.Transition{
			Global: mk(core.GlobalFeatureDim), State: mk(40), Action: mk(1),
			Reward: rng.Float64(), NextGlobal: mk(core.GlobalFeatureDim), NextState: mk(40),
		})
	}
	// Two warm-up updates (the second steps the actor) size all batch scratch,
	// so -benchmem reports the steady state rather than set-up amortised over
	// a small b.N.
	tr.Update(rb)
	tr.Update(rb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Update(rb)
	}
}

// BenchmarkAstraeaThreeFlowScenario is the canonical Fig. 6 workload as a
// single number: wall time to simulate the 3-flow staggered run.
func BenchmarkAstraeaThreeFlowScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runner.MustRun(runner.Scenario{
			Seed: 1, RateBps: 100e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 30,
			Flows: []runner.FlowSpec{
				{Scheme: "astraea", Start: 0},
				{Scheme: "astraea", Start: 5},
				{Scheme: "astraea", Start: 10},
			},
		})
	}
}
