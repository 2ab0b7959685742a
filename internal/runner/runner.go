// Package runner executes emulation scenarios: it wires flows with their
// congestion controllers onto a topology, records per-flow throughput and
// RTT timeseries, and summarizes link statistics. Experiments, examples and
// tests all drive the simulator through this package.
package runner

import (
	"fmt"
	"math"

	"repro/internal/cc"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transport"
)

// FlowSpec configures one flow of a scenario.
type FlowSpec struct {
	// Scheme names a registered CC algorithm; ignored when CC is set.
	Scheme string
	// CC overrides Scheme with a pre-built controller (used for Astraea
	// agents that share a policy or service).
	CC transport.CongestionControl
	// Start and Duration in seconds; zero duration runs to the end.
	Start    float64
	Duration float64
	// ExtraDelay adds one-way delay to this flow's path (RTT heterogeneity).
	ExtraDelay float64
}

// Scenario describes a dumbbell experiment.
type Scenario struct {
	Seed       int64
	RateBps    float64
	BaseRTT    float64
	QueueBytes int     // absolute; if zero, QueueBDP applies
	QueueBDP   float64 // buffer as a multiple of BDP (rate × BaseRTT)
	LossProb   float64
	Duration   float64
	// SampleInterval for recorded timeseries; defaults to 100 ms.
	SampleInterval float64
	Flows          []FlowSpec
	// Discipline selects the bottleneck queueing policy (nil = droptail).
	Discipline netem.QueueDiscipline
	// Trace, when set, drives the bottleneck capacity over time (looped).
	Trace *trace.Trace
	// CrossBps injects Poisson background traffic at this average load.
	CrossBps float64
	// Jitter adds uniform random forward-path delay in [0, Jitter).
	Jitter float64
	// OnFlowCreated, when set, sees each flow as it is wired up (before
	// Start), after runner's own recorder has registered its observer.
	// Callers register theirs with Flow.Observe; they run after runner's.
	OnFlowCreated func(i int, f *transport.Flow)
	// Probe, when set, observes the simulator and topology right after
	// construction, before any flow is created or any event runs. It exists
	// for observers that attach to the running simulation — the invariant
	// checker in internal/check installs its sim.AfterEvent hook here.
	// Probes must not schedule events or draw from the simulator's RNG.
	Probe func(s *sim.Simulator, d *netem.Dumbbell)
	// Telemetry, when set, receives runtime metrics from every layer the
	// scenario builds: simulator event-loop counters, bottleneck-link
	// enqueue/drop counters, and transport send/loss/RTT instruments.
	// Instrumentation never changes event order or RNG draws, so results
	// are byte-identical with or without it. The registry is usually
	// private to this run (see RunBatchObserved); sharing one across
	// concurrent runs is safe but makes workers contend on its atomics.
	Telemetry *telemetry.Registry
	// FlowTelemetryLimit caps how many flows receive individually-named
	// instruments (runner_flow_<i>_*) on Telemetry. Flows beyond the cap
	// fold into shared runner_flow_overflow_* aggregates, so a 1000-flow
	// incast cannot explode registry cardinality. Zero selects
	// DefaultFlowTelemetryLimit; negative disables per-flow instruments
	// entirely (aggregates only).
	FlowTelemetryLimit int
}

// DefaultFlowTelemetryLimit is the per-flow instrument cap applied when
// Scenario.FlowTelemetryLimit is zero. 32 labeled flows cover every curated
// experiment; scale sweeps beyond it pay one fixed trio of overflow
// aggregates no matter how many flows they add.
const DefaultFlowTelemetryLimit = 32

// FlowResult holds everything recorded about one flow.
type FlowResult struct {
	Spec       FlowSpec
	SchemeName string
	Tput       *metrics.Timeseries // bits/sec
	RTT        *metrics.Timeseries // seconds (mean per bin; 0 where no samples)

	DeliveredBytes int64
	LostBytes      int64
	LostPackets    int64
	AvgTputBps     float64 // over the flow's active period
	AvgRTT         float64
	MinRTT         float64
	LossRate       float64
}

// Result is a completed scenario run.
type Result struct {
	Scenario    Scenario
	Flows       []*FlowResult
	Utilization float64 // delivered bits across flows / capacity over the run
	Bottleneck  netem.LinkStats
	MaxQueue    int
}

// queueBytes resolves the configured buffer size.
func (sc *Scenario) queueBytes() int {
	if sc.QueueBytes > 0 {
		return sc.QueueBytes
	}
	bdp := sc.QueueBDP
	if bdp <= 0 {
		bdp = 1
	}
	q := int(float64(netem.BDPBytes(sc.RateBps, sc.BaseRTT)) * bdp)
	if q < 2*transport.MSS {
		q = 2 * transport.MSS
	}
	return q
}

func (sc *Scenario) sampleInterval() float64 {
	if sc.SampleInterval > 0 {
		return sc.SampleInterval
	}
	return 0.1
}

// Run executes the scenario to completion.
func Run(sc Scenario) (*Result, error) {
	s := sim.New(sc.Seed)
	dumb := netem.NewDumbbell(s, netem.DumbbellConfig{
		RateBps:    sc.RateBps,
		BaseRTT:    sc.BaseRTT,
		QueueBytes: sc.queueBytes(),
		LossProb:   sc.LossProb,
		Discipline: sc.Discipline,
	})
	var flowMetrics *transport.Metrics
	if reg := sc.Telemetry; reg != nil {
		s.Instrument(reg)
		dumb.Bottleneck.Metrics = netem.NewLinkMetrics(reg)
		flowMetrics = transport.NewMetrics(reg)
		reg.Counter("runner_scenarios_total", "scenarios executed").Inc()
		// Milliseconds as a counter (not a seconds gauge) so per-run
		// registries merge commutatively.
		reg.Counter("runner_sim_milliseconds_total", "simulated virtual time executed").Add(int64(sc.Duration * 1000))
	}
	if sc.Probe != nil {
		sc.Probe(s, dumb)
	}
	if sc.Trace != nil {
		sc.Trace.Apply(s, dumb.Bottleneck, sc.Duration, true)
	}
	if sc.CrossBps > 0 {
		ct := &netem.CrossTraffic{Sim: s, Link: dumb.Bottleneck, MeanBps: sc.CrossBps, BurstMean: 4}
		ct.Start()
	}

	res := &Result{Scenario: sc}
	interval := sc.sampleInterval()
	bins := int(math.Ceil(sc.Duration/interval)) + 1

	recs := make([]*flowRecorder, 0, len(sc.Flows))
	for i, spec := range sc.Flows {
		ctrl := spec.CC
		if ctrl == nil {
			var err error
			ctrl, err = cc.New(spec.Scheme)
			if err != nil {
				return nil, fmt.Errorf("flow %d: %w", i, err)
			}
		}
		path := dumb.FlowPath(spec.ExtraDelay)
		if sc.Jitter > 0 {
			path.Forward = append([]netem.Hop{&netem.JitterHop{Sim: s, Max: sc.Jitter}}, path.Forward...)
		}
		f := transport.NewFlow(s, transport.FlowConfig{
			ID: i, Path: path, CC: ctrl, Start: spec.Start, Duration: spec.Duration,
			Metrics: flowMetrics,
		})
		r := &flowRecorder{
			fr: &FlowResult{
				Spec:       spec,
				SchemeName: ctrl.Name(),
				Tput:       &metrics.Timeseries{Interval: interval, Values: make([]float64, bins)},
				RTT:        &metrics.Timeseries{Interval: interval, Values: make([]float64, bins)},
			},
			flow:     f,
			rttCount: make([]int, bins),
			minRTT:   math.Inf(1),
		}
		f.Observe(transport.FlowObserver{Ack: r.onAck})
		recs = append(recs, r)
		if sc.OnFlowCreated != nil {
			sc.OnFlowCreated(i, f)
		}
		f.Start()
	}

	s.Run(sc.Duration)

	for _, r := range recs {
		r.finish(sc.Duration)
		res.Flows = append(res.Flows, r.fr)
	}
	if sc.Telemetry != nil {
		publishFlowTelemetry(&sc, res)
	}
	res.Bottleneck = dumb.Bottleneck.Stats()
	res.MaxQueue = dumb.Bottleneck.MaxQueueBytes()
	var delivered int64
	for _, fr := range res.Flows {
		delivered += func() int64 {
			var sum float64
			for _, v := range fr.Tput.Values {
				sum += v * fr.Tput.Interval
			}
			return int64(sum / 8)
		}()
	}
	capBits := sc.RateBps * sc.Duration
	if sc.Trace != nil {
		capBits = sc.Trace.Mean() * sc.Duration
	}
	if capBits > 0 {
		res.Utilization = float64(delivered) * 8 / capBits
	}
	simMillis.Add(int64(sc.Duration * 1000))
	return res, nil
}

// flowRecorder builds one flow's FlowResult: its ack observer bins
// throughput and RTT, and finish completes the result after the run.
type flowRecorder struct {
	fr       *FlowResult
	flow     *transport.Flow
	rttCount []int // acks per RTT bin
	rttSum   float64
	rttN     float64
	minRTT   float64
}

func (r *flowRecorder) onAck(e transport.AckEvent) {
	interval := r.fr.Tput.Interval
	bin := int(e.Now / interval)
	if bin >= 0 && bin < len(r.rttCount) {
		r.fr.Tput.Values[bin] += float64(e.Bytes) * 8 / interval
		r.fr.RTT.Values[bin] += e.RTT
		r.rttCount[bin]++
	}
	r.rttSum += e.RTT
	r.rttN++
	if e.RTT < r.minRTT {
		r.minRTT = e.RTT
	}
}

// finish turns the RTT bins into means and copies the flow's lifetime
// counters. A flow that stopped before the end of the run froze its
// counters at the stop, so reading them now gives the same totals.
func (r *flowRecorder) finish(runDuration float64) {
	fr, f := r.fr, r.flow
	for b, n := range r.rttCount {
		if n > 0 {
			fr.RTT.Values[b] /= float64(n)
		}
	}
	if r.rttN > 0 {
		fr.AvgRTT = r.rttSum / r.rttN
		fr.MinRTT = r.minRTT
	}
	fr.DeliveredBytes = f.DeliveredBytes
	fr.LostBytes = f.LostBytes
	fr.LostPackets = f.LostPackets
	active := fr.Spec.Duration
	if active <= 0 {
		active = runDuration - fr.Spec.Start
	}
	if active > 0 {
		fr.AvgTputBps = float64(fr.DeliveredBytes) * 8 / active
	}
	if tot := fr.DeliveredBytes + fr.LostBytes; tot > 0 {
		fr.LossRate = float64(fr.LostBytes) / float64(tot)
	}
}

// publishFlowTelemetry records per-flow byte totals on the scenario's
// registry, individually named for the first FlowTelemetryLimit flows and
// folded into overflow aggregates beyond that. Registry cardinality is
// therefore O(min(flows, limit)), not O(flows): a 1000-flow incast adds the
// same handful of series as a 32-flow one.
func publishFlowTelemetry(sc *Scenario, res *Result) {
	reg := sc.Telemetry
	limit := sc.FlowTelemetryLimit
	if limit == 0 {
		limit = DefaultFlowTelemetryLimit
	}
	var overflow int64
	var overflowDelivered, overflowLost int64
	for i, fr := range res.Flows {
		if limit > 0 && i < limit {
			reg.Counter(fmt.Sprintf("runner_flow_%d_delivered_bytes_total", i),
				"bytes delivered by this flow").Add(fr.DeliveredBytes)
			reg.Counter(fmt.Sprintf("runner_flow_%d_lost_bytes_total", i),
				"bytes declared lost by this flow").Add(fr.LostBytes)
			continue
		}
		overflow++
		overflowDelivered += fr.DeliveredBytes
		overflowLost += fr.LostBytes
	}
	if overflow > 0 {
		reg.Counter("runner_flow_overflow_flows_total",
			"flows beyond the per-flow telemetry cap, folded into aggregates").Add(overflow)
		reg.Counter("runner_flow_overflow_delivered_bytes_total",
			"bytes delivered by flows beyond the per-flow telemetry cap").Add(overflowDelivered)
		reg.Counter("runner_flow_overflow_lost_bytes_total",
			"bytes lost by flows beyond the per-flow telemetry cap").Add(overflowLost)
	}
}

// MustRun panics on error; for tests and experiments with static configs.
func MustRun(sc Scenario) *Result {
	r, err := Run(sc)
	if err != nil {
		panic(err)
	}
	return r
}

// AvgTputWindow returns a flow's mean throughput between from and to.
func (fr *FlowResult) AvgTputWindow(from, to float64) float64 {
	return metrics.Mean(fr.Tput.Slice(from, to))
}
