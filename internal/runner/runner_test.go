package runner

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestAllSchemesSingleFlow(t *testing.T) {
	// Every registered comparison scheme must drive a clean 100 Mbps link
	// to reasonable utilization without pathological loss or latency.
	for _, scheme := range []string{"reno", "cubic", "vegas", "bbr", "copa", "vivace", "aurora", "orca", "remy", "astraea"} {
		res := MustRun(Scenario{
			Seed: 1, RateBps: 100e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 20,
			Flows: []FlowSpec{{Scheme: scheme}},
		})
		if res.Utilization < 0.6 {
			t.Errorf("%s utilization %.3f", scheme, res.Utilization)
		}
		fr := res.Flows[0]
		if fr.AvgRTT < 0.030 || fr.AvgRTT > 0.065 {
			t.Errorf("%s avg RTT %.1f ms outside [30, 65]", scheme, fr.AvgRTT*1000)
		}
		if fr.LossRate > 0.10 {
			t.Errorf("%s loss rate %.3f", scheme, fr.LossRate)
		}
	}
}

func TestUnknownSchemeErrors(t *testing.T) {
	_, err := Run(Scenario{
		RateBps: 1e6, BaseRTT: 0.01, Duration: 1,
		Flows: []FlowSpec{{Scheme: "nosuch"}},
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *Result {
		return MustRun(Scenario{
			Seed: 99, RateBps: 50e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 10,
			Flows: []FlowSpec{{Scheme: "cubic"}, {Scheme: "cubic", Start: 2}},
		})
	}
	a, b := run(), run()
	if a.Utilization != b.Utilization {
		t.Fatalf("utilization differs: %v vs %v", a.Utilization, b.Utilization)
	}
	for i := range a.Flows {
		if a.Flows[i].DeliveredBytes != b.Flows[i].DeliveredBytes {
			t.Fatalf("flow %d bytes differ", i)
		}
		for j := range a.Flows[i].Tput.Values {
			if a.Flows[i].Tput.Values[j] != b.Flows[i].Tput.Values[j] {
				t.Fatalf("flow %d tput series diverges at bin %d", i, j)
			}
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed int64) float64 {
		res := MustRun(Scenario{
			Seed: seed, RateBps: 50e6, BaseRTT: 0.030, QueueBDP: 1,
			LossProb: 0.001, Duration: 10,
			Flows: []FlowSpec{{Scheme: "cubic"}},
		})
		return float64(res.Flows[0].DeliveredBytes)
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical stochastic runs")
	}
}

func TestFlowTimings(t *testing.T) {
	res := MustRun(Scenario{
		Seed: 1, RateBps: 50e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 20,
		Flows: []FlowSpec{{Scheme: "cubic", Start: 5, Duration: 10}},
	})
	fr := res.Flows[0]
	if fr.Tput.At(2) != 0 {
		t.Fatal("flow transmitted before start")
	}
	if fr.Tput.At(10) == 0 {
		t.Fatal("flow idle mid-lifetime")
	}
	if fr.Tput.At(18) != 0 {
		t.Fatal("flow transmitted after stop")
	}
}

func TestExtraDelayRaisesRTT(t *testing.T) {
	res := MustRun(Scenario{
		Seed: 1, RateBps: 50e6, BaseRTT: 0.030, QueueBDP: 4, Duration: 10,
		Flows: []FlowSpec{
			{Scheme: "vegas"},
			{Scheme: "vegas", ExtraDelay: 0.050},
		},
	})
	if res.Flows[1].MinRTT < res.Flows[0].MinRTT+0.045 {
		t.Fatalf("extra delay not applied: minRTTs %.1f vs %.1f ms",
			res.Flows[0].MinRTT*1000, res.Flows[1].MinRTT*1000)
	}
}

func TestTraceThrottlesThroughput(t *testing.T) {
	tr := trace.Step(5e6, 20e6, 2, 20)
	res := MustRun(Scenario{
		Seed: 1, RateBps: 20e6, BaseRTT: 0.020, QueueBDP: 2, Duration: 20,
		Trace: tr,
		Flows: []FlowSpec{{Scheme: "cubic"}},
	})
	avg := res.Flows[0].AvgTputBps
	if avg > 14e6 {
		t.Fatalf("trace-capped flow averaged %.1f Mbps above the %0.1f trace mean",
			avg/1e6, tr.Mean()/1e6)
	}
	if avg < 6e6 {
		t.Fatalf("flow underused trace-driven link: %.1f Mbps", avg/1e6)
	}
}

func TestCrossTrafficReducesForegroundShare(t *testing.T) {
	clean := MustRun(Scenario{
		Seed: 1, RateBps: 50e6, BaseRTT: 0.030, QueueBDP: 2, Duration: 15,
		Flows: []FlowSpec{{Scheme: "cubic"}},
	})
	loaded := MustRun(Scenario{
		Seed: 1, RateBps: 50e6, BaseRTT: 0.030, QueueBDP: 2, Duration: 15,
		CrossBps: 25e6,
		Flows:    []FlowSpec{{Scheme: "cubic"}},
	})
	if loaded.Flows[0].AvgTputBps > 0.9*clean.Flows[0].AvgTputBps {
		t.Fatalf("cross traffic had no effect: %.1f vs %.1f Mbps",
			loaded.Flows[0].AvgTputBps/1e6, clean.Flows[0].AvgTputBps/1e6)
	}
}

func TestAstraeaThreeFlowFairness(t *testing.T) {
	// The paper's headline: near-optimal Jain index on staggered flows.
	res := MustRun(Scenario{
		Seed: 2, RateBps: 100e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 200,
		Flows: []FlowSpec{
			{Scheme: "astraea", Start: 0, Duration: 120},
			{Scheme: "astraea", Start: 40, Duration: 120},
			{Scheme: "astraea", Start: 80, Duration: 120},
		},
	})
	var series []*metrics.Timeseries
	for _, fr := range res.Flows {
		series = append(series, fr.Tput)
	}
	jain := metrics.Mean(metrics.JainOverTime(series, 1e6))
	if jain < 0.97 {
		t.Fatalf("Astraea mean Jain %.4f, want ≥ 0.97 (paper: 0.991)", jain)
	}
	if res.Utilization < 0.9 {
		t.Fatalf("utilization %.3f", res.Utilization)
	}
	// During the three-flow phase, every flow near 1/3 share.
	for i, fr := range res.Flows {
		avg := fr.AvgTputWindow(90, 115)
		if math.Abs(avg-100e6/3) > 8e6 {
			t.Errorf("flow %d at %.1f Mbps in 3-flow phase, want ≈33.3", i, avg/1e6)
		}
	}
}

// TestEventQueueDepth pins the event queue to live events on the Fig. 6
// scenario (bench workload sim_fig6, cut to 12 s so all three flows
// overlap). Each ack re-arms its flow's RTO; when a re-arm left the old
// timer in the heap until popped, the queue climbed to ~1,950 entries for
// three flows. Rescheduling in place holds it near 260.
func TestEventQueueDepth(t *testing.T) {
	var maxPending, sum, n int
	sc := Scenario{
		Seed: 1, RateBps: 100e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 12,
		Flows: []FlowSpec{
			{Scheme: "astraea", Start: 0},
			{Scheme: "astraea", Start: 5},
			{Scheme: "astraea", Start: 10},
		},
		Probe: func(s *sim.Simulator, _ *netem.Dumbbell) {
			s.AfterEvent = func() {
				p := s.Pending()
				maxPending = max(maxPending, p)
				sum += p
				n++
			}
		},
	}
	MustRun(sc)
	t.Logf("pending events: max %d, mean %.0f over %d events", maxPending, float64(sum)/float64(n), n)
	if maxPending > 512 {
		t.Fatalf("event queue reached %d pending events with 3 flows, want ≤ 512: cancelled timers are accumulating", maxPending)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	res := MustRun(Scenario{
		Seed: 1, RateBps: 100e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 10,
		Flows: []FlowSpec{{Scheme: "bbr"}},
	})
	// Utilization must equal delivered bits over capacity (±rounding).
	var bits float64
	for _, v := range res.Flows[0].Tput.Values {
		bits += v * res.Flows[0].Tput.Interval
	}
	want := bits / (100e6 * 10)
	if math.Abs(res.Utilization-want) > 0.02 {
		t.Fatalf("utilization %.4f vs recomputed %.4f", res.Utilization, want)
	}
}

func TestRTTSeriesSane(t *testing.T) {
	res := MustRun(Scenario{
		Seed: 1, RateBps: 100e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 10,
		Flows: []FlowSpec{{Scheme: "cubic"}},
	})
	fr := res.Flows[0]
	for i, v := range fr.RTT.Values {
		if v != 0 && (v < 0.030 || v > 0.070) {
			t.Fatalf("RTT sample %d = %v outside [base, base+buffer]", i, v)
		}
	}
	if fr.MinRTT < 0.030 || fr.MinRTT > 0.032 {
		t.Fatalf("MinRTT %v", fr.MinRTT)
	}
}
