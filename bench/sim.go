package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// simWorkload is one simulate-pipeline workload: a pinned scenario run
// back-to-back through runner.Run.
type simWorkload struct {
	name string
	// deepHeap selects which event-cost probe prices the workload's events:
	// hundreds of flows keep thousands of timers pending, three flows a few.
	deepHeap bool
	// scenario builds a fresh scenario. With agg set, every flow's
	// controller (and the agent's policy) is wrapped to time its callbacks.
	scenario func(seed int64, agg *callAgg) runner.Scenario
}

var simFig6 = simWorkload{
	name: "sim_fig6",
	scenario: func(seed int64, agg *callAgg) runner.Scenario {
		sc := runner.Scenario{Seed: seed, RateBps: 100e6, BaseRTT: 0.030, QueueBDP: 1, Duration: 30}
		for _, start := range []float64{0, 5, 10} {
			spec := runner.FlowSpec{Scheme: "astraea", Start: start}
			if agg != nil {
				cfg := core.DefaultConfig()
				policy := &timedPolicy{inner: core.NewReferencePolicy(cfg), hist: &agg.policy}
				spec.CC = &timedCC{inner: core.NewAgent(cfg, policy), agg: agg}
			}
			sc.Flows = append(sc.Flows, spec)
		}
		return sc
	},
}

var simIncast500 = simWorkload{
	name:     "sim_incast500",
	deepHeap: true,
	scenario: func(seed int64, agg *callAgg) runner.Scenario {
		sc := check.FixedIncast(seed, 500, 2.0)
		if agg != nil {
			for i := range sc.Flows {
				sc.Flows[i].CC = &timedCC{inner: cc.MustNew(sc.Flows[i].Scheme), agg: agg}
			}
		}
		return sc
	},
}

// simSlices is how many consecutive slices the timed iterations are cut
// into for the tail metric.
const simSlices = 5

// callAgg aggregates the per-packet callbacks of one scenario run.
type callAgg struct {
	ack, loss, mtp nsHist
	policy         nsHist
}

func (a *callAgg) merge(o *callAgg) {
	a.ack.merge(&o.ack)
	a.loss.merge(&o.loss)
	a.mtp.merge(&o.mtp)
	a.policy.merge(&o.policy)
}

// all returns the three controller callbacks folded into one histogram.
func (a *callAgg) all() *nsHist {
	h := &nsHist{}
	h.merge(&a.ack)
	h.merge(&a.loss)
	h.merge(&a.mtp)
	return h
}

// timedCC times a controller's callbacks through the public
// transport.CongestionControl seam. It changes no decision, so a wrapped
// run must produce the digest of an unwrapped one.
type timedCC struct {
	inner transport.CongestionControl
	agg   *callAgg
}

func (t *timedCC) Name() string           { return t.inner.Name() }
func (t *timedCC) Init(f *transport.Flow) { t.inner.Init(f) }

func (t *timedCC) OnAck(f *transport.Flow, e transport.AckEvent) {
	t0 := time.Now()
	t.inner.OnAck(f, e)
	t.agg.ack.add(int64(time.Since(t0)))
}

func (t *timedCC) OnLoss(f *transport.Flow, e transport.LossEvent) {
	t0 := time.Now()
	t.inner.OnLoss(f, e)
	t.agg.loss.add(int64(time.Since(t0)))
}

func (t *timedCC) OnMTP(f *transport.Flow, st transport.MTPStats) {
	t0 := time.Now()
	t.inner.OnMTP(f, st)
	t.agg.mtp.add(int64(time.Since(t0)))
}

// timedPolicy times Action calls through the public core.Policy seam.
type timedPolicy struct {
	inner core.Policy
	hist  *nsHist
}

func (p *timedPolicy) Action(state []float64) float64 {
	t0 := time.Now()
	a := p.inner.Action(state)
	p.hist.add(int64(time.Since(t0)))
	return a
}

// digestResult hashes every numeric field of a result and reports whether
// any float was NaN.
func digestResult(res *runner.Result) (sum uint64, hasNaN bool) {
	d := newDigest()
	d.float(res.Utilization)
	b := res.Bottleneck
	for _, v := range []int64{b.Arrived, b.Delivered, b.TailDrops, b.AQMDrops, b.RandomDrops, b.BytesOut, int64(res.MaxQueue)} {
		d.int(v)
	}
	for _, fr := range res.Flows {
		d.int(fr.DeliveredBytes)
		d.int(fr.LostBytes)
		d.int(fr.LostPackets)
		for _, v := range []float64{fr.AvgTputBps, fr.AvgRTT, fr.MinRTT, fr.LossRate} {
			d.float(v)
		}
		for _, v := range fr.Tput.Values {
			d.float(v)
		}
		for _, v := range fr.RTT.Values {
			d.float(v)
		}
	}
	return d.h.Sum64(), d.hasNaN
}

// sane applies the result predicates that hold for any correct run.
func sane(res *runner.Result) error {
	if !(res.Utilization > 0 && res.Utilization <= 1.02) {
		return fmt.Errorf("utilization %.4f outside (0, 1.02]", res.Utilization)
	}
	b := res.Bottleneck
	if b.Delivered+b.TailDrops+b.AQMDrops+b.RandomDrops > b.Arrived {
		return fmt.Errorf("bottleneck delivered %d + dropped %d exceeds arrived %d",
			b.Delivered, b.TailDrops+b.AQMDrops+b.RandomDrops, b.Arrived)
	}
	var delivered int64
	for _, fr := range res.Flows {
		delivered += fr.DeliveredBytes
	}
	if delivered > b.BytesOut {
		return fmt.Errorf("flows delivered %d bytes, bottleneck carried %d", delivered, b.BytesOut)
	}
	return nil
}

// runSim measures one simulate workload. Untraced, every iteration is a
// plain runner.Run. Traced, plain and wrapped iterations alternate, which
// yields the tracing overhead and the "wrappers do not perturb" digest
// check from one run.
func runSim(w simWorkload, o options) (*workloadResult, error) {
	began := time.Now()
	res := newResult(w.name, o)
	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s-seed%d", w.name, o.seed))
	}

	// Set-up: build the scenario and run it three times untimed, so the
	// packet pool, the event free list and the heap are at steady size.
	warmRuns := o.pick(3, 1)
	var setups []float64
	var want uint64
	for rep := 0; rep < o.setupReps(); rep++ {
		t0 := time.Now()
		for i := 0; i < warmRuns; i++ {
			r, err := runner.Run(w.scenario(o.seed, nil))
			if err != nil {
				return nil, err
			}
			want, _ = digestResult(r)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Digest = fmt.Sprintf("%016x", want)

	reg := telemetry.NewRegistry()
	total := &callAgg{}
	var plainWall, tracedWall []float64 // seconds per iteration
	var simSecs, tracedSimSecs float64
	var lastMaxQueue int
	var m0, m1 runtime.MemStats
	var plainMallocs, plainBytes uint64

	minIters := 1
	if o.trace {
		minIters = 2 // one plain, one wrapped, however slow the host
	}
	phaseStart := time.Now()
	for iter := 0; iter < minIters || time.Since(phaseStart).Seconds() < o.seconds; iter++ {
		wrapped := o.trace && iter%2 == 1
		var agg *callAgg
		if wrapped {
			agg = &callAgg{}
		}
		sc := w.scenario(o.seed, agg)
		if wrapped {
			sc.Telemetry = reg
		} else {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		r, err := runner.Run(sc)
		t1 := time.Now()
		wall := t1.Sub(t0).Seconds()
		res.Attempted++
		if err != nil {
			res.Failed++
			res.fail("iteration %d: %v", iter, err)
			continue
		}
		if wrapped {
			tracedWall = append(tracedWall, wall)
			tracedSimSecs += sc.Duration
			lastMaxQueue = r.MaxQueue
			root := tr.add(0, "runner.Run", t0, t1, 0, map[string]float64{"iteration": float64(iter), "sim_s": sc.Duration})
			calls := agg.all()
			id := tr.add(root, "cc.callbacks", t0, t1, calls.seconds(), map[string]float64{
				"count": float64(calls.n), "p50_ns": calls.quantile(0.5), "p99_ns": calls.quantile(0.99)})
			if agg.policy.n > 0 {
				tr.add(id, "core.policy.Action", t0, t1, agg.policy.seconds(), map[string]float64{
					"count": float64(agg.policy.n), "p50_ns": agg.policy.quantile(0.5), "p99_ns": agg.policy.quantile(0.99)})
			}
			total.merge(agg)
		} else {
			plainWall = append(plainWall, wall)
			simSecs += sc.Duration
			runtime.ReadMemStats(&m1)
			plainMallocs += m1.Mallocs - m0.Mallocs
			plainBytes += m1.TotalAlloc - m0.TotalAlloc
		}
		got, hasNaN := digestResult(r)
		err = sane(r)
		switch {
		case hasNaN:
			err = errors.New("NaN in result")
		case got != want:
			err = fmt.Errorf("digest %016x, want %016x", got, want)
		}
		if err != nil {
			res.Failed++
			res.fail("iteration %d (wrapped=%v): %v", iter, wrapped, err)
		}
	}
	phaseWall := time.Since(phaseStart).Seconds()
	if len(plainWall) == 0 || (o.trace && len(tracedWall) == 0) {
		return nil, fmt.Errorf("every iteration failed")
	}
	simDur := simSecs / float64(len(plainWall))
	res.Phases["timed"] = phaseInfo{Seconds: phaseWall, Samples: len(plainWall) + len(tracedWall),
		Note: fmt.Sprintf("back-to-back runner.Run of %g sim-s", simDur)}

	if !o.trace {
		rates := make([]float64, len(plainWall))
		ms := make([]float64, len(plainWall))
		for i, wl := range plainWall {
			rates[i] = simDur / wl
			ms[i] = wl * 1e3
		}
		res.EndToEnd["setup_s"] = summarize(setups)
		res.EndToEnd["throughput"] = summarize(rates)
		res.EndToEnd["op_p50_ms"] = summarize(ms)
		// The upper quartile is the highest percentile with ten samples
		// beyond it at sim_fig6's ~45 iterations per run; it is read per
		// slice, as the serve workload reads its percentiles.
		res.EndToEnd["op_tail_ms"] = sliceTail(ms, simSlices)
		res.Info["allocs_per_simsec"] = float64(plainMallocs) / simSecs
		res.WallS = time.Since(began).Seconds()
		return res, nil
	}

	var tracedTotal float64
	for _, wl := range tracedWall {
		tracedTotal += wl
	}
	snap := reg.Snapshot()
	count := func(name string) float64 {
		m, _ := snap.Get(name)
		return float64(m.Count)
	}
	per := func(v float64) float64 { return v / tracedSimSecs }
	pl := res.PerLayer

	probeN := o.pick(200000, 20000)
	eventNs := probeEventNs(1, probeN)
	eventNsDeep := probeEventNs(4096, probeN)
	hopNs, hopAllocs, hopEvents := probeHop(probeN)
	priced := eventNs
	if w.deepHeap {
		priced = eventNsDeep
	}

	events := count("sim_events_dispatched_total")
	hits, misses := count("sim_event_freelist_hits_total"), count("sim_event_freelist_misses_total")
	pl["sim.events_per_simsec"] = per(events)
	if hits+misses > 0 {
		pl["sim.freelist_miss_ratio"] = misses / (hits + misses)
	}
	pl["sim.event_ns"] = eventNs
	pl["sim.event_ns_deep"] = eventNsDeep
	simBudget := events * priced / 1e9
	pl["sim.budget_share"] = simBudget / tracedTotal

	enq := count("netem_enqueued_total")
	drops := count("netem_drops_tail_total") + count("netem_drops_aqm_total") + count("netem_drops_random_total")
	pl["netem.packets_per_simsec"] = per(enq)
	if enq+drops > 0 {
		pl["netem.drop_ratio"] = drops / (enq + drops)
	}
	pl["netem.max_queue_bytes"] = float64(lastMaxQueue)
	pl["netem.hop_ns"] = hopNs
	pl["netem.hop_allocs"] = hopAllocs
	// The hop probe runs its packets through the event loop too; price
	// netem's own share net of those events so the two rows do not overlap.
	hopSelf := math.Max(0, hopNs-hopEvents*eventNs)
	netemBudget := enq * hopSelf / 1e9
	pl["netem.budget_share"] = netemBudget / tracedTotal

	calls := total.all()
	pl["cc.callback_ns_p50"] = calls.quantile(0.5)
	pl["cc.callback_ns_p99"] = calls.quantile(0.99)
	pl["cc.calls_per_simsec"] = per(float64(calls.n))
	ccBusy := calls.seconds()
	pl["cc.busy_share"] = ccBusy / tracedTotal
	policyBusy := total.policy.seconds()
	if total.policy.n > 0 {
		pl["core.agent_mtp_ns"] = total.mtp.quantile(0.5)
		pl["core.policy_action_ns"] = total.policy.quantile(0.5)
	}

	sent := count("transport_packets_sent_total")
	lost := count("transport_packets_lost_reorder_total") + count("transport_packets_lost_timeout_total")
	pl["transport.sent_per_simsec"] = per(sent)
	if sent > 0 {
		pl["transport.loss_ratio"] = lost / sent
	}
	pl["transport.timeouts_per_simsec"] = per(count("transport_timeouts_total"))
	// What the wrapped iterations cost beyond the plain ones is the
	// benchmark's own timers and counters, not the program's work.
	plainMed, tracedMed := summarize(plainWall).Value, summarize(tracedWall).Value
	overhead := math.Max(0, tracedTotal-plainMed*float64(len(tracedWall)))
	residual := tracedTotal - overhead - ccBusy - simBudget - netemBudget
	if sent > 0 {
		pl["transport.residual_ns_per_pkt"] = residual * 1e9 / sent
	}

	pl["runner.allocs_per_simsec"] = float64(plainMallocs) / simSecs
	pl["runner.alloc_bytes_per_simsec"] = float64(plainBytes) / simSecs
	var mEnd runtime.MemStats
	runtime.ReadMemStats(&mEnd)
	pl["runner.gc_pause_ms_per_s"] = float64(mEnd.PauseTotalNs) / 1e6 / time.Since(began).Seconds()
	if !w.deepHeap {
		speedup, err := probeBatchSpeedup(w, o)
		if err != nil {
			return nil, err
		}
		pl["runner.batch_speedup"] = speedup
	}

	pl["trace.overhead_pct"] = 100 * (tracedMed/plainMed - 1)
	pl["proc.cpu_s"], pl["proc.peak_rss_mb"] = rusage()

	// Budget of the wrapped iterations' wall. cc and policy are timed
	// spans; sim and netem are counts priced by the probes; what is left
	// inside runner.Run is transport plus the runner's own bookkeeping.
	b := newBudget("wrapped runner.Run iterations (wall)", tracedTotal)
	b.add("cc (callbacks, self)", "span", ccBusy-policyBusy)
	b.add("core (policy.Action)", "span", policyBusy)
	b.add("sim (event loop)", "probe", simBudget)
	b.add("netem (link hops, net of events)", "probe", netemBudget)
	b.add("transport+runner", "residual", math.Max(0, residual))
	b.add("bench (timers and counters of this trace)", "span", overhead)
	b.close()
	res.Budgets = append(res.Budgets, b)

	if err := tr.write(o.outDir, w.name); err != nil {
		return nil, err
	}
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// probeEventNs prices one event-loop dispatch: a self-rescheduling tick
// with `pending` timers in the heap, median of five rounds of n events.
func probeEventNs(pending, n int) float64 {
	rounds := make([]float64, 5)
	for r := range rounds {
		s := sim.New(1)
		for i := 1; i < pending; i++ {
			s.At(1e12+float64(i), func() {})
		}
		fired := 0
		var tick func()
		tick = func() {
			fired++
			if fired < n {
				s.After(0.001, tick)
			}
		}
		s.After(0, tick)
		t0 := time.Now()
		s.Run(1e9)
		rounds[r] = float64(time.Since(t0)) / float64(n)
	}
	return summarize(rounds).Value
}

// probeHop prices one packet crossing one netem link: ns, heap allocations
// and simulator events per packet.
func probeHop(n int) (ns, allocs, events float64) {
	s := sim.New(1)
	l := netem.NewLink(s, "probe", netem.LinkConfig{RateBps: 1e12, Delay: 0.001, QueueBytes: 1 << 30})
	hops := []netem.Hop{l}
	deliver := func(*netem.Packet) {}
	send := func(k int) {
		for i := 0; i < k; i++ {
			p := netem.AcquirePacket()
			p.Size = 1500
			netem.SendOver(p, hops, deliver, nil)
			if i%1024 == 1023 {
				s.Run(s.Now() + 1)
			}
		}
		s.Run(s.Now() + 10)
	}
	send(4096) // warm the packet pool and the event free list
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0 := s.Processed
	t0 := time.Now()
	send(n)
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(s.Processed-e0) / float64(n)
}

// probeBatchSpeedup runs 2×GOMAXPROCS copies of the scenario through
// runner.RunBatch serially and in parallel: figure-regeneration throughput.
func probeBatchSpeedup(w simWorkload, o options) (float64, error) {
	g := runtime.GOMAXPROCS(0)
	batch := make([]runner.Scenario, 2*g)
	for i := range batch {
		batch[i] = w.scenario(o.seed, nil)
		if o.smoke {
			batch[i].Duration = 5
		}
	}
	t0 := time.Now()
	if _, err := runner.RunBatch(batch, 1); err != nil {
		return 0, err
	}
	serial := time.Since(t0)
	t0 = time.Now()
	if _, err := runner.RunBatch(batch, g); err != nil {
		return 0, err
	}
	return serial.Seconds() / time.Since(t0).Seconds(), nil
}
