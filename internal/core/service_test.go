package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/telemetry"
)

type constPolicy struct{ v float64 }

func (p constPolicy) Action([]float64) float64 { return p.v }

// echoPolicy returns the first state feature, so every request can verify
// it received its own answer.
type echoPolicy struct{}

func (echoPolicy) Action(s []float64) float64 { return s[0] }

// gatePolicy makes the evaluator's state observable and controllable without
// sleeps: every Action call announces itself on entered, then blocks until
// the test sends on release. The answer is tag + state[0], so a test can tell
// which policy instance evaluated which request.
type gatePolicy struct {
	tag     float64
	entered chan struct{}
	release chan struct{}
}

func newGatePolicy(tag float64) *gatePolicy {
	return &gatePolicy{tag: tag, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatePolicy) Action(s []float64) float64 {
	g.entered <- struct{}{}
	<-g.release
	return g.tag + s[0]
}

// hangBound only detects hangs; no test outcome depends on its length.
const hangBound = 10 * time.Second

// enter waits for the evaluator to be inside Action; open lets that call
// return. A test that fails leaves the evaluator parked in the gate, so gate
// tests close their service at the end instead of deferring it.
func (g *gatePolicy) enter(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(hangBound):
		t.Fatalf("policy %v: evaluator never called Action", g.tag)
	}
}

func (g *gatePolicy) open() { g.release <- struct{}{} }

// step lets exactly one Action call through.
func (g *gatePolicy) step(t *testing.T) {
	t.Helper()
	g.enter(t)
	g.open()
}

func await(t *testing.T, ch <-chan float64, what string) float64 {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(hangBound):
		t.Fatalf("%s: no answer", what)
		return 0
	}
}

func TestServiceSynchronousMode(t *testing.T) {
	svc := NewSyncService(DefaultConfig(), constPolicy{0.5})
	if got := svc.Action([]float64{1}); got != 0.5 {
		t.Fatalf("Action = %v", got)
	}
	if svc.Requests != 1 || svc.Batches != 1 {
		t.Fatalf("counters %d/%d", svc.Requests, svc.Batches)
	}
}

// TestServiceLoneRequestAnsweredAtOnce: an idle evaluator takes a single
// request immediately — there is no window to wait out, so the only thing
// between Submit and the answer is the policy itself.
func TestServiceLoneRequestAnsweredAtOnce(t *testing.T) {
	gate := newGatePolicy(0)
	svc := NewService(DefaultConfig(), gate)
	resp := svc.Submit([]float64{7})
	gate.step(t) // the evaluator is already in Action for the lone request
	if got := await(t, resp, "lone request"); got != 7 {
		t.Fatalf("Action = %v", got)
	}
	if requests, batches := svc.Stats(); requests != 1 || batches != 1 {
		t.Fatalf("counters %d/%d, want 1/1", requests, batches)
	}
	svc.Close()
}

// TestServicePullBatchesWhileBusy pins the batching rule: everything
// submitted while the evaluator is busy comes back as one pull, evaluated in
// chunks of at most MaxBatch with one AfterBatch per chunk.
func TestServicePullBatchesWhileBusy(t *testing.T) {
	const maxBatch, n = 4, 10 // one pull of 10 → chunks of 4, 4, 2
	gate := newGatePolicy(0)
	svc := NewService(DefaultConfig(), gate)
	svc.MaxBatch = maxBatch
	var afters atomic.Int64
	svc.AfterBatch = func() { afters.Add(1) }

	first := svc.Submit([]float64{0})
	gate.enter(t) // evaluator is inside Action for the first request: busy
	resps := make([]<-chan float64, n)
	for i := range resps {
		resps[i] = svc.Submit([]float64{float64(i + 1)})
	}
	if _, batches := svc.Stats(); batches != 1 {
		t.Fatalf("batches %d while the evaluator is blocked, want 1", batches)
	}
	gate.open()
	await(t, first, "first request")

	// The evaluator now pulls all n at once. Chunk boundaries are visible
	// through AfterBatch: it must have run exactly once per finished chunk
	// each time a new chunk's first Action begins.
	for i := 0; i < n; i++ {
		gate.enter(t)
		if want := int64(1 + i/maxBatch); afters.Load() != want {
			t.Fatalf("request %d began after %d AfterBatch calls, want %d", i, afters.Load(), want)
		}
		gate.open()
		if got := await(t, resps[i], "queued request"); got != float64(i+1) {
			t.Fatalf("request %d got %v: answers out of submission order", i, got)
		}
	}
	svc.Close()
	if requests, batches := svc.Stats(); requests != n+1 || batches != 4 {
		t.Fatalf("counters %d/%d, want %d/4 (1 + chunks of 4, 4, 2)", requests, batches, n+1)
	}
	if afters.Load() != 4 {
		t.Fatalf("AfterBatch ran %d times, want 4", afters.Load())
	}
}

// TestServiceSetPolicyNeverSplitsAPull: the policy is captured once per
// pull, so a swap while a pulled batch is mid-evaluation (even between its
// MaxBatch chunks) applies only from the next pull.
func TestServiceSetPolicyNeverSplitsAPull(t *testing.T) {
	old, next := newGatePolicy(100), newGatePolicy(200)
	svc := NewService(DefaultConfig(), old)
	svc.MaxBatch = 2

	first := svc.Submit([]float64{0})
	old.enter(t)
	var pulled [5]<-chan float64 // one pull, three chunks
	for i := range pulled {
		pulled[i] = svc.Submit([]float64{float64(i + 1)})
	}
	old.open()
	await(t, first, "first request")

	old.step(t) // pulled[0] is being answered by the old policy…
	await(t, pulled[0], "pulled request 0")
	old.enter(t)
	svc.SetPolicy(next) // …and the swap lands mid-pull, mid-chunk
	late := svc.Submit([]float64{9})
	old.open()
	for i := 1; i < len(pulled); i++ {
		if i > 1 {
			old.step(t)
		}
		if got := await(t, pulled[i], "pulled request"); got != 100+float64(i+1) {
			t.Fatalf("pulled request %d answered %v: the swap split the batch", i, got)
		}
	}
	next.step(t)
	if got := await(t, late, "post-swap request"); got != 209 {
		t.Fatalf("request submitted after the swap answered %v, want the new policy's 209", got)
	}
	svc.Close()
}

// TestServiceSetPolicy checks the swap itself and that it applies to later
// requests.
func TestServiceSetPolicy(t *testing.T) {
	svc := NewSyncService(DefaultConfig(), constPolicy{0.25})
	if got := svc.Action([]float64{1}); got != 0.25 {
		t.Fatalf("pre-swap Action = %v", got)
	}
	svc.SetPolicy(constPolicy{-0.75})
	if got := svc.Action([]float64{1}); got != -0.75 {
		t.Fatalf("post-swap Action = %v", got)
	}
	svc.SetPolicy(nil) // ignored, not a panic
	if got := svc.Action([]float64{1}); got != -0.75 {
		t.Fatalf("nil swap changed policy: %v", got)
	}
}

// TestServiceClose: Close answers everything still queued behind a busy
// evaluator before it returns, and afterwards Action is synchronous — it
// completes on the caller's goroutine with no evaluator left to run it.
func TestServiceClose(t *testing.T) {
	gate := newGatePolicy(0)
	svc := NewService(DefaultConfig(), gate)
	first := svc.Submit([]float64{1})
	gate.enter(t)
	queued := svc.Submit([]float64{2})

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	gate.open()
	gate.step(t)
	select {
	case <-closed:
	case <-time.After(hangBound):
		t.Fatal("Close did not return after the queue drained")
	}
	// Close has returned, so both answers are already buffered.
	for i, ch := range []<-chan float64{first, queued} {
		select {
		case got := <-ch:
			if got != float64(i+1) {
				t.Fatalf("request %d answered %v", i, got)
			}
		default:
			t.Fatalf("request %d unanswered when Close returned", i)
		}
	}

	svc.SetPolicy(constPolicy{0.75})
	if got := svc.Action([]float64{1}); got != 0.75 {
		t.Fatalf("post-close Action = %v", got)
	}
	if requests, batches := svc.Stats(); requests != 3 || batches != 3 {
		t.Fatalf("counters %d/%d, want 3/3", requests, batches)
	}
	svc.Close() // idempotent
}

// TestServiceNoLostOrDuplicatedResponses is the correctness proof for
// evaluating batches off the service lock: many concurrent submitters with
// unique payloads must each receive exactly their own response, exactly
// once, across pulls of every size, MaxBatch chunking, and mid-run policy
// swaps. Run under -race this also proves the bookkeeping/evaluator split
// is sound.
func TestServiceNoLostOrDuplicatedResponses(t *testing.T) {
	svc := NewService(DefaultConfig(), echoPolicy{})
	svc.MaxBatch = 8
	defer svc.Close()

	const goroutines = 32
	const perG = 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				want := float64(g*perG + i + 1)
				if got := svc.Action([]float64{want}); got != want {
					errs <- "got someone else's response"
					return
				}
			}
		}(g)
	}
	// Concurrent policy swaps to the identical law must be invisible.
	for i := 0; i < 10; i++ {
		svc.SetPolicy(echoPolicy{})
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	requests, _ := svc.Stats()
	if requests != goroutines*perG {
		t.Fatalf("requests %d, want %d", requests, goroutines*perG)
	}
}

// TestServiceSubmitAbandoned proves a caller can walk away from a Submit:
// the request still evaluates and the service does not block delivering to
// the abandoned channel.
func TestServiceSubmitAbandoned(t *testing.T) {
	svc := NewService(DefaultConfig(), constPolicy{0.5})
	_ = svc.Submit([]float64{1}) // abandoned: never received
	got := svc.Action([]float64{2})
	if got != 0.5 {
		t.Fatalf("Action after abandoned Submit = %v", got)
	}
	svc.Close() // must not hang on the undelivered buffered response
	requests, _ := svc.Stats()
	if requests != 2 {
		t.Fatalf("requests %d", requests)
	}
}

func TestServiceDefaultPolicy(t *testing.T) {
	cfg := DefaultConfig()
	svc := NewSyncService(cfg, nil)
	// nil policy selects the reference policy; a no-signal state probes up.
	if got := svc.Action(make([]float64, cfg.StateDim())); got != 1 {
		t.Fatalf("default-policy Action = %v, want 1", got)
	}
}

// collect is an allocation-free Completion: it records the action it
// receives into its slot of a shared answer slice.
type collect struct {
	out []float64
	i   int
}

func (c *collect) Complete(a float64) { c.out[c.i] = a }

// chunkOf builds one evaluator chunk over states whose answers land in out.
func chunkOf(states [][]float64, out []float64) []inferReq {
	chunk := make([]inferReq, len(states))
	for i, st := range states {
		chunk[i] = inferReq{state: st, comp: &collect{out: out, i: i}}
	}
	return chunk
}

// servingStates draws n stacked states from the calibration sampler, every
// fifth one made hostile: NaN, ±Inf and far out-of-range features.
func servingStates(cfg Config, rng *rand.Rand, n int) [][]float64 {
	states := make([][]float64, n)
	for i := range states {
		st := sampleState(cfg, rng)
		if i%5 == 4 {
			st[i%len(st)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e9}[i/5%4]
		}
		states[i] = st
	}
	return states
}

// TestServiceBatchPolicyMatchesAction: for both batched policies, the
// answers the evaluator delivers for a chunk are bitwise what Action gives
// each request alone, at chunk sizes across the policies' blocking (groups
// of 4 for MLPPolicy, blocks of 16 for QuantizedPolicy) up to MaxBatch, and
// likewise when the chunks form by themselves behind a busy evaluator.
func TestServiceBatchPolicyMatchesAction(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(46))
	actor := &MLPPolicy{Net: nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 256, 128, 64, 1)}
	quant, err := QuantizeMLPPolicy(actor, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]Policy{"quantized": quant, "float": actor} {
		if _, ok := p.(BatchPolicy); !ok {
			t.Fatalf("%s policy is not a BatchPolicy", name)
		}
		oracle := ClonePolicy(p)
		s := newService(ClonePolicy(p), 256, false)
		for _, n := range []int{2, 3, 4, 5, 15, 16, 17, 33, 255, 256} {
			states := servingStates(cfg, rng, n)
			got := make([]float64, n)
			s.evaluate(chunkOf(states, got), s.policy, serviceMetrics{})
			for i, st := range states {
				if want := oracle.Action(st); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s chunk of %d, request %d: %v, Action %v", name, n, i, got[i], want)
				}
			}
		}
		s.Close()

		// Through the evaluator itself: submitted back to back, the
		// requests are pulled in batches of whatever size the evaluator
		// finds; every answer is still its own.
		svc := NewService(cfg, ClonePolicy(p))
		states := servingStates(cfg, rng, 600)
		got := make([]float64, len(states))
		for i, st := range states {
			svc.SubmitTo(st, &collect{out: got, i: i})
		}
		svc.Close()
		for i, st := range states {
			if want := oracle.Action(st); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s submitted request %d: %v, Action %v", name, i, got[i], want)
			}
		}
	}
}

// batchSpy is a BatchPolicy that records how it was called.
type batchSpy struct {
	actions int   // Action calls
	batches []int // ActionBatch sizes
}

func (p *batchSpy) Action(s []float64) float64 { p.actions++; return s[0] }

func (p *batchSpy) ActionBatch(states []float64, n int, actions []float64) {
	p.batches = append(p.batches, n)
	for i := range actions[:n] {
		actions[i] = states[i*len(states)/n]
	}
}

// actionOnly forwards Action and nothing else, as a wrapper around a
// policy does: it hides BatchPolicy.
type actionOnly struct{ inner Policy }

func (p actionOnly) Action(s []float64) float64 { return p.inner.Action(s) }

// TestServiceBatchPathSelection pins which path a chunk takes: one
// ActionBatch for a BatchPolicy chunk of two or more states of one width,
// one Action per request for a lone request, for a chunk of mixed widths
// and for a policy without the batched method — with the answers in
// request order either way.
func TestServiceBatchPathSelection(t *testing.T) {
	mk := func(widths ...int) ([][]float64, []float64) {
		states := make([][]float64, len(widths))
		for i, w := range widths {
			states[i] = make([]float64, w)
			states[i][0] = float64(i + 1)
		}
		return states, make([]float64, len(widths))
	}
	check := func(what string, got []float64) {
		t.Helper()
		for i, v := range got {
			if v != float64(i+1) {
				t.Fatalf("%s: request %d answered %v, want %d", what, i, v, i+1)
			}
		}
	}
	for _, c := range []struct {
		name    string
		widths  []int
		actions int
		batches []int
	}{
		{"chunk of five", []int{3, 3, 3, 3, 3}, 0, []int{5}},
		{"lone request", []int{3}, 1, nil},
		{"mixed widths", []int{3, 3, 4, 3}, 4, nil},
	} {
		spy := &batchSpy{}
		states, got := mk(c.widths...)
		s := newService(spy, 256, false)
		s.evaluate(chunkOf(states, got), spy, serviceMetrics{})
		if spy.actions != c.actions || fmt.Sprint(spy.batches) != fmt.Sprint(c.batches) {
			t.Fatalf("%s: %d Action calls and ActionBatch sizes %v, want %d and %v",
				c.name, spy.actions, spy.batches, c.actions, c.batches)
		}
		check(c.name, got)
	}

	spy := &batchSpy{}
	states, got := mk(3, 3, 3, 3)
	s := newService(actionOnly{spy}, 256, false)
	s.evaluate(chunkOf(states, got), s.policy, serviceMetrics{})
	if spy.actions != 4 || len(spy.batches) != 0 {
		t.Fatalf("wrapped policy: %d Action calls and ActionBatch sizes %v, want 4 and none", spy.actions, spy.batches)
	}
	check("wrapped policy", got)
}

// TestServiceEvaluateBatchZeroAllocs pins a steady-state batched chunk —
// packing the states, one quantized forward pass, delivery — at zero
// allocations, with telemetry off and on (batch size, queue wait and eval
// time observed).
func TestServiceEvaluateBatchZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(9))
	qp, err := QuantizeMLPPolicy(&MLPPolicy{Net: nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 256, 128, 64, 1)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := servingStates(cfg, rng, 256)
	got := make([]float64, len(states))
	chunk := chunkOf(states, got)
	for _, instrumented := range []bool{false, true} {
		s := newService(qp, 256, false)
		if instrumented {
			s.Instrument(telemetry.NewRegistry())
			for i := range chunk {
				chunk[i].enqueued = time.Now()
			}
		}
		if n := testing.AllocsPerRun(20, func() { s.evaluate(chunk, qp, s.m) }); n != 0 {
			t.Fatalf("instrumented %v: a batched chunk allocates %.1f times, want 0", instrumented, n)
		}
		if instrumented && s.m.evalTime.Count() == 0 {
			t.Fatal("core_infer_eval_seconds observed nothing")
		}
	}
}
