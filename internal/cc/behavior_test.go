package cc_test

// Behavioral tests: each congestion-control scheme must exhibit its
// defining closed-loop characteristics on the emulated bottleneck — the
// properties the paper's evaluation relies on.

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/metrics"
	"repro/internal/runner"
)

func single(t *testing.T, scheme string, rate, rtt, bdp float64, dur float64) *runner.Result {
	t.Helper()
	return runner.MustRun(runner.Scenario{
		Seed: 42, RateBps: rate, BaseRTT: rtt, QueueBDP: bdp, Duration: dur,
		Flows: []runner.FlowSpec{{Scheme: scheme}},
	})
}

func TestHighUtilizationSchemes(t *testing.T) {
	for _, scheme := range []string{"cubic", "bbr", "orca", "astraea", "reno", "vegas", "remy"} {
		res := single(t, scheme, 100e6, 0.030, 1, 15)
		if res.Utilization < 0.85 {
			t.Errorf("%s utilization %.3f, want > 0.85", scheme, res.Utilization)
		}
	}
}

func TestDelayBasedSchemesKeepQueuesShort(t *testing.T) {
	// Vegas and Copa should hold average RTT well below the full-buffer
	// RTT (60 ms) on a 1 BDP buffer.
	for _, scheme := range []string{"vegas", "copa", "astraea"} {
		res := single(t, scheme, 100e6, 0.030, 1, 15)
		if rtt := res.Flows[0].AvgRTT; rtt > 0.045 {
			t.Errorf("%s avg RTT %.1f ms, want < 45 (delay-controlled)", scheme, rtt*1000)
		}
	}
}

func TestCubicFillsDeepBuffers(t *testing.T) {
	// Loss-based control holds a standing queue proportional to the
	// buffer: on 4 BDP, Cubic's average RTT should be far above base.
	res := single(t, "cubic", 100e6, 0.030, 4, 20)
	if rtt := res.Flows[0].AvgRTT; rtt < 0.060 {
		t.Errorf("cubic avg RTT %.1f ms on 4 BDP buffer, want > 60 (buffer-filling)", rtt*1000)
	}
}

func TestRenoSlowStartThenAIMD(t *testing.T) {
	res := single(t, "reno", 100e6, 0.030, 1, 15)
	// Reaches high rate quickly (slow start)...
	early := res.Flows[0].Tput.At(1.5)
	if early < 40e6 {
		t.Errorf("reno at t=1.5s only %.1f Mbps; slow start too slow", early/1e6)
	}
	// ...and sustains decent utilization with a loss rate typical of AIMD.
	if res.Flows[0].LossRate > 0.05 {
		t.Errorf("reno loss rate %.3f too high", res.Flows[0].LossRate)
	}
}

func TestBBRResilientToRandomLoss(t *testing.T) {
	// BBR ignores random loss; Cubic collapses. The satellite experiment
	// (Fig. 20) depends on this contrast.
	lossRes := runner.MustRun(runner.Scenario{
		Seed: 3, RateBps: 50e6, BaseRTT: 0.050, QueueBDP: 1, LossProb: 0.01,
		Duration: 20, Flows: []runner.FlowSpec{{Scheme: "bbr"}},
	})
	cubicRes := runner.MustRun(runner.Scenario{
		Seed: 3, RateBps: 50e6, BaseRTT: 0.050, QueueBDP: 1, LossProb: 0.01,
		Duration: 20, Flows: []runner.FlowSpec{{Scheme: "cubic"}},
	})
	if lossRes.Utilization < 0.7 {
		t.Errorf("bbr under 1%% loss: %.3f utilization, want > 0.7", lossRes.Utilization)
	}
	if cubicRes.Utilization > lossRes.Utilization {
		t.Errorf("cubic (%.3f) should underperform bbr (%.3f) under random loss",
			cubicRes.Utilization, lossRes.Utilization)
	}
}

func TestAuroraStarvesCompetitor(t *testing.T) {
	// Fig. 1a's core claim: an incumbent Aurora flow yields nothing.
	res := runner.MustRun(runner.Scenario{
		Seed: 4, RateBps: 80e6, BaseRTT: 0.060, QueueBytes: 4_800_000, Duration: 60,
		Flows: []runner.FlowSpec{
			{Scheme: "aurora", Start: 0},
			{Scheme: "aurora", Start: 20},
		},
	})
	f1 := res.Flows[0].AvgTputWindow(30, 60)
	f2 := res.Flows[1].AvgTputWindow(30, 60)
	if f2 > f1 {
		t.Fatalf("late Aurora flow overtook incumbent: %.1f vs %.1f Mbps", f2/1e6, f1/1e6)
	}
	if jain := metrics.Jain([]float64{f1, f2}); jain > 0.95 {
		t.Errorf("aurora flows too fair (Jain %.3f); the scheme should be bandwidth-hogging", jain)
	}
}

func TestVivaceConvergesSlowlyOnLongRTT(t *testing.T) {
	// Vivace needs 2 MIs ≈ 2 RTTs per decision: on a 120 ms path its ramp
	// to capacity takes many seconds (Fig. 1b), far slower than Astraea.
	viv := single(t, "vivace", 100e6, 0.120, 1, 30)
	ast := single(t, "astraea", 100e6, 0.120, 1, 30)
	vivAt10 := metrics.Mean(viv.Flows[0].Tput.Slice(8, 12))
	astAt10 := metrics.Mean(ast.Flows[0].Tput.Slice(8, 12))
	if vivAt10 > astAt10 {
		t.Errorf("vivace (%.1f Mbps) should ramp slower than astraea (%.1f Mbps) at t≈10s on 120ms RTT",
			vivAt10/1e6, astAt10/1e6)
	}
}

func TestEnhancedVivaceUnstableOnShortRTT(t *testing.T) {
	// Fig. 2b: the enlarged theta0 causes rate oscillation at 12 ms RTT.
	std := single(t, "vivace", 100e6, 0.012, 1, 30)
	enh := single(t, "vivace-enhanced", 100e6, 0.012, 1, 30)
	stdDev := metrics.StdDev(std.Flows[0].Tput.Slice(10, 30))
	enhDev := metrics.StdDev(enh.Flows[0].Tput.Slice(10, 30))
	if enhDev < stdDev {
		t.Errorf("enhanced vivace stddev %.1f Mbps not above standard %.1f on 12ms RTT",
			enhDev/1e6, stdDev/1e6)
	}
}

func TestOrcaSmoothsCubic(t *testing.T) {
	// Orca's overlay should reduce Cubic's latency (queue occupancy) on a
	// deep buffer while keeping utilization.
	cub := single(t, "cubic", 100e6, 0.030, 4, 20)
	orc := single(t, "orca", 100e6, 0.030, 4, 20)
	if orc.Utilization < 0.85 {
		t.Errorf("orca utilization %.3f", orc.Utilization)
	}
	if orc.Flows[0].AvgRTT > cub.Flows[0].AvgRTT {
		t.Errorf("orca RTT %.1f ms should be below cubic %.1f ms on deep buffer",
			orc.Flows[0].AvgRTT*1000, cub.Flows[0].AvgRTT*1000)
	}
}

func TestCopaLowLatency(t *testing.T) {
	res := single(t, "copa", 100e6, 0.030, 2, 20)
	if res.Flows[0].AvgRTT > 0.040 {
		t.Errorf("copa avg RTT %.1f ms, want < 40", res.Flows[0].AvgRTT*1000)
	}
	if res.Utilization < 0.7 {
		t.Errorf("copa utilization %.3f", res.Utilization)
	}
}

func TestSchemesConvergeFromColdStart(t *testing.T) {
	// Every scheme must reach at least half capacity within 10 s on an
	// easy link — a liveness floor guarding against wedged controllers.
	for _, scheme := range cc.Names() {
		res := single(t, scheme, 50e6, 0.040, 2, 12)
		late := metrics.Mean(res.Flows[0].Tput.Slice(8, 12))
		if late < 25e6 {
			t.Errorf("%s reached only %.1f Mbps of 50 by t=8-12s", scheme, late/1e6)
		}
	}
}

func TestTwoCubicFlowsEventuallyFair(t *testing.T) {
	res := runner.MustRun(runner.Scenario{
		Seed: 5, RateBps: 50e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 60,
		Flows: []runner.FlowSpec{
			{Scheme: "cubic", Start: 0},
			{Scheme: "cubic", Start: 5},
		},
	})
	f1 := res.Flows[0].AvgTputWindow(30, 60)
	f2 := res.Flows[1].AvgTputWindow(30, 60)
	if jain := metrics.Jain([]float64{f1, f2}); jain < 0.8 {
		t.Errorf("two cubic flows Jain %.3f over 30s, want ≥ 0.8 (AIMD fairness)", jain)
	}
}
