package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// The serve workload's load shape. It is fixed here, in the benchmark, so
// that no change to the system's own load generator can alter it.
const (
	satOutstanding = 512   // closed loop: requests kept outstanding per connection
	openWorkers    = 1024  // open loop: blocking senders available per connection
	loRatePerCore  = 2500  // open loop, req/s per GOMAXPROCS: every batch is flushed by the 5 ms timer
	hiRatePerCore  = 30000 // open loop, req/s per GOMAXPROCS: between timer- and size-flushed batches
	statePoolSize  = 4096  // distinct seeded state vectors cycled through
	phaseSlices    = 10    // slices per phase; metrics are medians across slices
	verifyRequests = 2000  // bitwise-checked requests before and after the phases
	phaseAttempts  = 3     // times a phase is measured before a host stall makes the run invalid
	warmPerSender  = 100   // set-up warm-up: requests per closed-loop sender
	spanEvery      = 64    // traced: one request in spanEvery becomes a root span
	clientTimeout  = 2 * time.Second
)

// servedPolicy times Action calls on one shard through the core.Policy
// seam. ClonePolicy hands every further shard its own instance and
// registers it, so per-shard busy time can be summed.
type servedPolicy struct {
	inner core.Policy
	set   *policySet

	mu   sync.Mutex // the evaluator writes, the benchmark reads between phases
	hist nsHist
}

type policySet struct {
	mu  sync.Mutex
	all []*servedPolicy
}

func (p *servedPolicy) Action(state []float64) float64 {
	t0 := time.Now()
	a := p.inner.Action(state)
	d := int64(time.Since(t0))
	p.mu.Lock()
	p.hist.add(d)
	p.mu.Unlock()
	return a
}

func (p *servedPolicy) ClonePolicy() core.Policy {
	c := &servedPolicy{inner: core.ClonePolicy(p.inner), set: p.set}
	p.set.mu.Lock()
	p.set.all = append(p.set.all, c)
	p.set.mu.Unlock()
	return c
}

// total folds every shard's histogram into one.
func (s *policySet) total() *nsHist {
	h := &nsHist{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.all {
		p.mu.Lock()
		h.merge(&p.hist)
		p.mu.Unlock()
	}
	return h
}

// serveRig is one in-process server with its client connections.
type serveRig struct {
	srv     *serve.Server
	clients []*serve.Client
	states  [][]float64
	want    []float64 // the oracle's action per state
	quant   core.Policy

	// Traced runs only.
	reg   *telemetry.Registry
	evals *policySet
}

// buildServe constructs policy, server, listener and connections from the
// seed. The actor is paper-size (StateDim→256→128→64→1), compiled to the
// fixed-point form astraea-serve deploys by default.
func buildServe(seed int64, traced bool) (*serveRig, error) {
	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 256, 128, 64, 1)
	quant, err := core.QuantizeMLPPolicy(&core.MLPPolicy{Net: net}, cfg)
	if err != nil {
		return nil, err
	}
	rg := &serveRig{quant: quant}
	oracle := core.ClonePolicy(quant)
	for i := 0; i < statePoolSize; i++ {
		st := core.SampleCalibrationState(cfg, rng)
		rg.states = append(rg.states, st)
		rg.want = append(rg.want, oracle.Action(st))
	}

	var served core.Policy = quant
	if traced {
		rg.reg = telemetry.NewRegistry()
		rg.evals = &policySet{}
		first := &servedPolicy{inner: quant, set: rg.evals}
		rg.evals.all = append(rg.evals.all, first)
		served = first
	}
	rg.srv = serve.NewServer(core.NewService(cfg, served), cfg, serve.Options{})
	if traced {
		rg.srv.Instrument(rg.reg)
	}
	addr, err := rg.srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rg.close()
		return nil, err
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c, err := serve.Dial("tcp", addr.String())
		if err != nil {
			rg.close()
			return nil, err
		}
		c.Timeout = clientTimeout
		rg.clients = append(rg.clients, c)
	}
	return rg, nil
}

// close tears the rig down and waits for the server's goroutines.
func (rg *serveRig) close() {
	for _, c := range rg.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = rg.srv.Shutdown(ctx) // a forced drain still stops every goroutine
}

// tally counts request outcomes. A shed or deadline-missed request still
// gets an answer, the flagged fallback action, which is the server's
// designed response to overload; the system's own load generator counts it
// as a success with a flag. Here both follow a host stall (the open-loop
// schedule releases the backlog at once), so they are not failures: they
// decide whether the run is a valid measurement. Failures are hard errors
// and wrong answers.
type tally struct {
	sent, hard, shed, deadline, wrong int64
}

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.hard += o.hard
	t.shed += o.shed
	t.deadline += o.deadline
	t.wrong += o.wrong
}

func (t *tally) failed() int64    { return t.hard + t.wrong }
func (t *tally) fallbacks() int64 { return t.shed + t.deadline }

// classify books one response against the oracle.
func (rg *serveRig) classify(t *tally, res serve.Result, err error, state int) {
	t.sent++
	switch {
	case err != nil:
		t.hard++
	case res.Shed():
		t.shed++
	case res.DeadlineMissed():
		t.deadline++
	case res.Fallback() || res.Version != 1 ||
		math.Float64bits(res.Action) != math.Float64bits(rg.want[state]):
		t.wrong++
	}
}

// reqSpan is a sampled request's interval.
type reqSpan struct{ start, end time.Time }

// mark is a phase boundary. Everything but the time is taken on traced
// runs only: registry and policy-wrapper snapshots, server counts, CPU, heap.
type mark struct {
	at       time.Time
	snap     telemetry.Snapshot
	evals    *nsHist
	req, bat int64
	cpu      float64
	mem      runtime.MemStats
}

// phaseStats is what one load phase measured.
type phaseStats struct {
	tally
	name          string
	before, after mark // set by runServe's measure
	wall          float64
	sliceRPS      []float64   // closed loop: responses per second, per slice
	sliceLat      [][]float64 // open loop: latency from intended send time in ms, per slice
	maxLagMs      float64     // open loop: worst send time minus intended time
	released      float64     // open loop: seconds the generators took to hand over the whole schedule
	sampled       []reqSpan
}

// closedLoop keeps satOutstanding requests in flight on every connection,
// each sender issuing its next request when the previous one is answered.
// It runs for dur; with perSender > 0 it is work-bounded instead and each
// sender stops after that many requests.
func (rg *serveRig) closedLoop(dur time.Duration, perSender int, sample bool) phaseStats {
	var ps phaseStats
	sliceDur := dur / phaseSlices
	counts := make([]int64, phaseSlices)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(dur)
	for c, client := range rg.clients {
		for k := 0; k < satOutstanding; k++ {
			wg.Add(1)
			go func(client *serve.Client, sender int) {
				defer wg.Done()
				var t tally
				var local [phaseSlices]int64
				var spans []reqSpan
				flow := uint64(sender + 1)
				for n := 0; ; n++ {
					if perSender > 0 && n >= perSender {
						break
					}
					t0 := time.Now()
					if perSender == 0 && !t0.Before(stop) {
						break
					}
					state := (sender*31 + n) % statePoolSize
					res, err := client.InferFlow(flow, rg.states[state])
					rg.classify(&t, res, err, state)
					t1 := time.Now()
					if s := int(t1.Sub(start) / sliceDur); perSender == 0 && s < phaseSlices {
						local[s]++
					}
					if sample && n%spanEvery == 0 {
						spans = append(spans, reqSpan{t0, t1})
					}
				}
				mu.Lock()
				ps.tally.add(t)
				for i, v := range local {
					counts[i] += v
				}
				ps.sampled = append(ps.sampled, spans...)
				mu.Unlock()
			}(client, c*satOutstanding+k)
		}
	}
	wg.Wait()
	ps.wall = time.Since(start).Seconds()
	for _, n := range counts {
		ps.sliceRPS = append(ps.sliceRPS, float64(n)/sliceDur.Seconds())
	}
	return ps
}

// openLoop sends on a fixed schedule of rate requests per second, split
// evenly over the connections, whatever the server does. Each request is
// timed from its intended send time, so a stall is charged to every
// request it delayed.
func (rg *serveRig) openLoop(rate float64, dur time.Duration, sample bool) phaseStats {
	var ps phaseStats
	conns := len(rg.clients)
	perConn := int(rate * dur.Seconds() / float64(conns))
	interval := time.Duration(float64(time.Second) * float64(conns) / rate)
	lat := make([][]int64, conns) // ns from intended send time; 0 = no answer
	var maxLag, released atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for c, client := range rg.clients {
		lat[c] = make([]int64, perConn)
		// The buffer lets the generator hand over a burst that came due
		// during one of its sleeps without waiting for a sender.
		jobs := make(chan int, 256)
		// Offset the connections' schedules so requests interleave.
		base := start.Add(time.Duration(c) * interval / time.Duration(conns))
		for k := 0; k < openWorkers; k++ {
			wg.Add(1)
			go func(client *serve.Client, c, sender int, lat []int64) {
				defer wg.Done()
				var t tally
				flow := uint64(sender + 1)
				for i := range jobs {
					due := base.Add(time.Duration(i) * interval)
					atomicMax(&maxLag, int64(time.Since(due)))
					state := (c + i*conns) % statePoolSize
					res, err := client.InferFlow(flow, rg.states[state])
					if err == nil {
						lat[i] = int64(time.Since(due))
					}
					rg.classify(&t, res, err, state)
				}
				mu.Lock()
				ps.tally.add(t)
				mu.Unlock()
			}(client, c, c*openWorkers+k, lat[c])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(jobs)
			defer func() { atomicMax(&released, int64(time.Since(start))) }()
			for next := 0; next < perConn; {
				dueNow := int(time.Since(base)/interval) + 1
				for ; next < dueNow && next < perConn; next++ {
					jobs <- next
				}
				if next < perConn {
					time.Sleep(max(time.Until(base.Add(time.Duration(next)*interval)), 100*time.Microsecond))
				}
			}
		}()
	}
	wg.Wait()
	ps.wall = time.Since(start).Seconds()
	ps.maxLagMs = float64(maxLag.Load()) / 1e6
	ps.released = float64(released.Load()) / 1e9
	ps.sliceLat = make([][]float64, phaseSlices)
	for c := range lat {
		base := start.Add(time.Duration(c) * interval / time.Duration(conns))
		for i, ns := range lat[c] {
			if ns == 0 {
				continue
			}
			s := i * phaseSlices / perConn
			ps.sliceLat[s] = append(ps.sliceLat[s], float64(ns)/1e6)
			if sample && i%spanEvery == 0 {
				due := base.Add(time.Duration(i) * interval)
				ps.sampled = append(ps.sampled, reqSpan{due, due.Add(time.Duration(ns))})
			}
		}
	}
	for _, s := range ps.sliceLat {
		sort.Float64s(s)
	}
	return ps
}

// atomicMax raises a to v if v is larger.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// slicePercentile reads percentile q in every slice and summarizes across
// slices: the reported value is the median of the slice percentiles.
func (ps *phaseStats) slicePercentile(q float64) sample {
	var per []float64
	for _, s := range ps.sliceLat {
		if len(s) > 0 {
			per = append(per, quantile(s, q))
		}
	}
	return summarize(per)
}

func (ps *phaseStats) answered() int64 { return ps.sent - ps.hard }

// timed is the number of open-loop requests with a latency sample.
func (ps *phaseStats) timed() (n int) {
	for _, s := range ps.sliceLat {
		n += len(s)
	}
	return n
}

// batchSize is the server's mean batch size over the phase (traced runs).
func (ps *phaseStats) batchSize() float64 {
	if ps.after.bat == ps.before.bat {
		return 0
	}
	return float64(ps.after.req-ps.before.req) / float64(ps.after.bat-ps.before.bat)
}

// achieved is the rate in req/s at which an open-loop phase of length dur
// answered its schedule: answers over the time the generators took to
// release it. The drain of the last answers is latency, not lost rate.
func (ps *phaseStats) achieved(dur time.Duration) float64 {
	return float64(ps.answered()) / math.Max(ps.released, dur.Seconds())
}

// meanMs is the mean open-loop latency over the whole phase.
func (ps *phaseStats) meanMs() float64 {
	var sum float64
	var n int
	for _, s := range ps.sliceLat {
		for _, v := range s {
			sum += v
		}
		n += len(s)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// verify sends verifyRequests requests and compares every action bitwise
// with the oracle. A fallback answer (shed while a burst drains, or a host
// stall past the deadline) says nothing about the policy's output, so the
// request is retried after a pause; only an error, a policy answer that
// differs, or a request that never reaches the policy counts as bad.
func (rg *serveRig) verify() (checked, bad int64) {
	var next, wrong atomic.Int64
	var first sync.Once // the first bad answer is described, for diagnosis
	var wg sync.WaitGroup
	for c, client := range rg.clients {
		for k := 0; k < 32; k++ {
			wg.Add(1)
			go func(client *serve.Client, flow uint64) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= verifyRequests {
						return
					}
					state := i % statePoolSize
					var res serve.Result
					var err error
					for try := 0; try < 20; try++ {
						if res, err = client.InferFlow(flow, rg.states[state]); err != nil || !res.Fallback() {
							break
						}
						time.Sleep(2 * time.Millisecond)
					}
					if err != nil || res.Fallback() || res.Version != 1 ||
						math.Float64bits(res.Action) != math.Float64bits(rg.want[state]) {
						wrong.Add(1)
						first.Do(func() {
							fmt.Fprintf(os.Stderr, "bench: serve_quant: verify: state %d: err=%v flags=%#x version=%d action=%v want %v\n",
								state, err, res.Flags, res.Version, res.Action, rg.want[state])
						})
					}
				}
			}(client, uint64(1_000_000+c*32+k))
		}
	}
	wg.Wait()
	return verifyRequests, wrong.Load()
}

// setupServe builds a rig, warms it with a fixed number of closed-loop
// requests and runs the pre-run verification pass.
func setupServe(res *workloadResult, seed int64, traced bool) (*serveRig, error) {
	rg, err := buildServe(seed, traced)
	if err != nil {
		return nil, err
	}
	warm := rg.closedLoop(time.Second, warmPerSender, false)
	checked, bad := rg.verify()
	res.Attempted += warm.sent + checked
	res.Failed += warm.failed() + bad
	if bad > 0 || warm.failed() > 0 {
		res.fail("set-up: %d of %d verified answers differ from the oracle, %d warm-up failures", bad, checked, warm.failed())
	}
	return rg, nil
}

func runServe(o options) (*workloadResult, error) {
	began := time.Now()
	res := newResult("serve_quant", o)
	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("serve_quant-seed%d", o.seed))
	}

	// Traced: a plain server's saturation throughput first, as the
	// reference the instrumented server is compared with.
	var plainRPS float64
	if o.trace {
		ref, err := setupServe(res, o.seed, false)
		if err != nil {
			return nil, err
		}
		ps := ref.closedLoop(time.Duration(o.seconds/6*float64(time.Second)), 0, false)
		ref.close()
		plainRPS = summarize(ps.sliceRPS).Value
	}

	var setups []float64
	var rg *serveRig
	for rep := 0; rep < o.setupReps(); rep++ {
		if rg != nil {
			rg.close()
		}
		t0 := time.Now()
		var err error
		if rg, err = setupServe(res, o.seed, o.trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rg.close()
	res.Digest = fmt.Sprintf("%016x", digestFloats(rg.want))

	phaseDur := time.Duration(o.seconds / 3 * float64(time.Second))
	// The load is sized to the cores in use: 5 000 and 60 000 req/s at the
	// development box's GOMAXPROCS of 2.
	loRate := float64(loRatePerCore * runtime.GOMAXPROCS(0))
	hiRate := float64(hiRatePerCore * runtime.GOMAXPROCS(0))
	shards := float64(rg.srv.Sharded().NumShards())

	take := func() (m mark) {
		m.at = time.Now()
		if o.trace {
			m.snap = rg.reg.Snapshot()
			m.evals = rg.evals.total()
			m.req, m.bat = rg.srv.Stats()
			m.cpu, _ = rusage()
			runtime.ReadMemStats(&m.mem)
		}
		return m
	}

	var all tally
	// measure runs one phase. An open-loop phase (rate > 0) that achieved
	// under 0.98 of its offered rate measured a host stall, not the code,
	// so it is measured again, up to phaseAttempts times; only then is the
	// run invalid. Every attempt's requests count as attempted.
	measure := func(name string, rate float64, load func() phaseStats) phaseStats {
		for try := 1; ; try++ {
			before := take()
			ps := load()
			ps.name, ps.before, ps.after = name, before, take()
			all.add(ps.tally)
			if ps.failed() > 0 {
				res.fail("phase %s: %d hard errors, %d wrong answers of %d", name, ps.hard, ps.wrong, ps.sent)
			}
			got := ps.achieved(phaseDur)
			if got >= 0.98*rate {
				return ps
			}
			if try == phaseAttempts {
				res.invalid(o, "phase %s achieved %.0f req/s of %.0f offered in each of %d attempts", name, got, rate, try)
				return ps
			}
			fmt.Fprintf(os.Stderr, "bench: serve_quant: phase %s achieved %.0f req/s of %.0f offered; measuring it again\n", name, got, rate)
		}
	}
	sat := measure("sat", 0, func() phaseStats { return rg.closedLoop(phaseDur, 0, o.trace) })
	lo := measure("lo", loRate, func() phaseStats { return rg.openLoop(loRate, phaseDur, o.trace) })
	hi := measure("hi", hiRate, func() phaseStats { return rg.openLoop(hiRate, phaseDur, o.trace) })

	checked, bad := rg.verify()
	res.Attempted += checked + all.sent
	res.Failed += bad + all.failed()
	if bad > 0 {
		res.fail("post-run: %d of %d verified answers differ from the oracle", bad, checked)
	}
	if v := rg.srv.PolicyVersion(); v != 1 {
		res.fail("policy version %d, want 1", v)
	}

	res.Phases["sat"] = phaseInfo{Seconds: sat.wall, Samples: int(sat.answered()),
		Note: fmt.Sprintf("closed loop, %d clients (%d connections x %d outstanding)",
			len(rg.clients)*satOutstanding, len(rg.clients), satOutstanding)}
	openNote := "open loop %.0f req/s, timed from intended send time, generator lag max %.2f ms"
	res.Phases["lo"] = phaseInfo{Seconds: lo.wall, Samples: lo.timed(), Note: fmt.Sprintf(openNote, loRate, lo.maxLagMs)}
	res.Phases["hi"] = phaseInfo{Seconds: hi.wall, Samples: hi.timed(), Note: fmt.Sprintf(openNote, hiRate, hi.maxLagMs)}
	measured := float64(sat.sent + lo.sent + hi.sent)
	missRatio := float64(sat.deadline+lo.deadline+hi.deadline) / measured
	shedRatio := float64(sat.shed+lo.shed+hi.shed) / measured
	if missRatio+shedRatio > 0.005 {
		res.invalid(o, "fallback answers %.4f of requests (limit 0.005): the host stalled", missRatio+shedRatio)
	}

	if !o.trace {
		res.EndToEnd["setup_s"] = summarize(setups)
		res.EndToEnd["throughput"] = summarize(sat.sliceRPS)
		res.EndToEnd["op_p50_ms"] = lo.slicePercentile(0.50)
		// p95, not p99: at 2 500 samples a slice, one 10 ms host stall moves
		// the slice p99, and in the box's bad hours most slices have one.
		res.EndToEnd["op_tail_ms"] = lo.slicePercentile(0.95)
		res.Info["lat_lo_p99_ms"] = lo.slicePercentile(0.99).Value
		res.Info["lat_hi_p50_ms"] = hi.slicePercentile(0.50).Value
		res.Info["lat_hi_p90_ms"] = hi.slicePercentile(0.90).Value
		res.Info["lat_hi_p99_ms"] = hi.slicePercentile(0.99).Value
		res.Info["deadline_miss_ratio"] = missRatio
		res.Info["shed_ratio"] = shedRatio
		res.Info["gen_max_lag_ms"] = math.Max(lo.maxLagMs, hi.maxLagMs)
		res.WallS = time.Since(began).Seconds()
		return res, nil
	}

	pl := res.PerLayer
	pl["serve.lat_hi_p50_ms"] = hi.slicePercentile(0.50).Value
	pl["serve.lat_hi_p90_ms"] = hi.slicePercentile(0.90).Value
	pl["serve.lat_hi_p99_ms"] = hi.slicePercentile(0.99).Value
	pl["serve.deadline_miss_ratio"] = missRatio
	pl["serve.shed_ratio"] = shedRatio
	pl["serve.gen_max_lag_ms"] = math.Max(lo.maxLagMs, hi.maxLagMs)

	// Server-side mean latency in hi, from the server's own histogram; the
	// rest of what the client saw is wire, client library and scheduling.
	if n, sum, _ := histDelta(hi.before.snap, hi.after.snap, "serve_e2e_latency_seconds", 0); n > 0 {
		pl["serve.server_mean_ms"] = sum / n * 1e3
		pl["serve.client_overhead_ms"] = hi.meanMs() - sum/n*1e3
	}

	satReqs := float64(sat.answered())
	satCPU := sat.after.cpu - sat.before.cpu
	satEval := sat.after.evals.seconds() - sat.before.evals.seconds()
	pl["serve.cpu_us_per_req"] = satCPU / satReqs * 1e6
	pl["serve.front_cpu_us_per_req"] = (satCPU - satEval) / satReqs * 1e6
	pl["serve.allocs_per_req"] = float64(sat.after.mem.Mallocs-sat.before.mem.Mallocs) / satReqs

	pl["core.batch_size_sat"] = sat.batchSize()
	pl["core.batch_size_lo"] = lo.batchSize()
	pl["core.batch_size_hi"] = hi.batchSize()
	// The server's batch-size buckets are powers of two, so "over half full,
	// up to MaxBatch" is as close to "flushed by size" as they resolve.
	if n, _, top := histDelta(sat.before.snap, sat.after.snap, "core_infer_batch_size", 256); n > 0 {
		pl["core.full_batch_ratio_sat"] = top / n
	}
	if n, sum, _ := histDelta(sat.before.snap, sat.after.snap, "core_infer_queue_wait_seconds", 0); n > 0 {
		pl["core.queue_wait_ms_sat"] = sum / n * 1e3
	}
	loWaitN, loWaitSum, _ := histDelta(lo.before.snap, lo.after.snap, "core_infer_queue_wait_seconds", 0)
	if loWaitN > 0 {
		pl["core.queue_wait_ms_lo"] = loWaitSum / loWaitN * 1e3
	}
	pl["core.service_inproc_rps"] = probeInprocRPS(rg, time.Duration(o.pick(1000, 200))*time.Millisecond)

	pl["nn.quant_action_ns"] = hi.after.evals.quantile(0.5)
	satWall := sat.after.at.Sub(sat.before.at).Seconds()
	pl["nn.eval_busy_share"] = satEval / (satWall * shards)

	satRPS := summarize(sat.sliceRPS).Value
	pl["trace.overhead_pct"] = 100 * (1 - satRPS/plainRPS)
	pl["proc.cpu_s"], pl["proc.peak_rss_mb"] = rusage()

	// Spans: one root per phase with the policy evaluations as an
	// aggregated child, and one root per sampled request.
	for _, ps := range []*phaseStats{&sat, &lo, &hi} {
		a, b := ps.before, ps.after
		id := tr.add(0, "phase."+ps.name, a.at, b.at, 0, map[string]float64{"requests": float64(ps.sent)})
		tr.add(id, "nn.policy.Action", a.at, b.at, b.evals.seconds()-a.evals.seconds(),
			map[string]float64{"count": float64(b.evals.n - a.evals.n)})
		for _, s := range ps.sampled {
			tr.add(0, "request."+ps.name, s.start, s.end, 0, nil)
		}
	}

	// CPU budget of the sat phase: GOMAXPROCS cores for its wall time.
	b := newBudget("sat phase CPU (GOMAXPROCS x wall)", float64(runtime.GOMAXPROCS(0))*satWall)
	b.add("nn (policy.Action, all shards)", "span", satEval)
	b.add("serve front + core batching + client + runtime", "residual", satCPU-satEval)
	b.add("idle", "residual", math.Max(0, b.Total-satCPU))
	b.close()
	res.Budgets = append(res.Budgets, b)

	// Latency budget of one mean lo-phase request.
	if sn, ssum, _ := histDelta(lo.before.snap, lo.after.snap, "serve_e2e_latency_seconds", 0); sn > 0 && loWaitN > 0 {
		clientMean, serverMean, waitMean := lo.meanMs()/1e3, ssum/sn, loWaitSum/loWaitN
		lb := newBudget("one lo-phase request (mean latency)", clientMean)
		lb.add("core (wait for the batch window)", "span", waitMean)
		lb.add("serve + nn (decode, evaluate, encode, flush)", "residual", serverMean-waitMean)
		lb.add("wire + client library + scheduling", "residual", clientMean-serverMean)
		lb.close()
		res.Budgets = append(res.Budgets, lb)
	}

	if err := tr.write(o.outDir, "serve_quant"); err != nil {
		return nil, err
	}
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// histDelta returns the count and sum a histogram gained between two
// snapshots, and the count gained in the bucket whose upper bound is
// `bound` (snapshot counts are per bucket, +Inf last).
func histDelta(a, b telemetry.Snapshot, name string, bound float64) (count, sum, inBucket float64) {
	ma, _ := a.Get(name)
	mb, ok := b.Get(name)
	if !ok {
		return 0, 0, 0
	}
	for i, n := range mb.Counts {
		d := float64(n)
		if i < len(ma.Counts) {
			d -= float64(ma.Counts[i])
		}
		count += d
		if i < len(mb.Bounds) && mb.Bounds[i] == bound {
			inBucket = d
		}
	}
	return count, mb.Sum - ma.Sum, inBucket
}

// probeDone completes one in-process request.
type probeDone struct{ wg *sync.WaitGroup }

func (d probeDone) Complete(float64) { d.wg.Done() }

// probeInprocRPS drives core.Service.SubmitTo directly, one service and
// one submitter per core, no sockets: what the batching core and the
// policy sustain without the network front.
func probeInprocRPS(rg *serveRig, dur time.Duration) float64 {
	cfg := core.DefaultConfig()
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			svc := core.NewService(cfg, core.ClonePolicy(rg.quant))
			defer svc.Close()
			var batch sync.WaitGroup
			for n := 0; time.Since(start) < dur; n++ {
				batch.Add(svc.MaxBatch)
				for i := 0; i < svc.MaxBatch; i++ {
					svc.SubmitTo(rg.states[(g+n*svc.MaxBatch+i)%statePoolSize], probeDone{&batch})
				}
				batch.Wait()
				total.Add(int64(svc.MaxBatch))
			}
		}(g)
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}
