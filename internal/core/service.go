package core

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Service is the Astraea inference service of §4: one shared policy serving
// many senders, evaluating concurrent requests as a batch. The paper
// implements it in C++ over TensorFlow with UNIX/UDP sockets; here the
// transport is an in-process queue, which preserves the architectural
// property Fig. 16b measures — one shared service scales sub-linearly with
// flow count, unlike per-flow inference servers.
//
// Batching is work-conserving and has one mechanism: a dedicated evaluator
// goroutine that, whenever it is idle, takes everything pending and answers
// it, and parks only when nothing is pending. A lone request is therefore
// answered at once, and batches form by themselves exactly while the
// evaluator is busy — there is no window to wait out and no size trigger.
// A chunk of a pull is evaluated in one call when the policy is a
// BatchPolicy (QuantizedPolicy and MLPPolicy are: one forward pass for up
// to MaxBatch states, each answer bitwise what Action gives), and one
// Action per request otherwise.
//
// NewSyncService selects the synchronous mode instead: every request is
// evaluated on its submitter's goroutine under a mutex. Only tests use it,
// for a deterministic single-goroutine service (the simulator's agents call
// their policy directly). The batching path is exercised by the
// scalability benchmarks, the tests, and the network-facing server in
// internal/serve.
//
// Concurrency model: s.mu guards only queue bookkeeping (pending slice,
// counters). Policy evaluation happens on the evaluator goroutine, never
// under s.mu and never on a submitter's goroutine, so new arrivals are
// accepted while a batch forwards through the network, and a caller of
// Submit can bound its own wait (see internal/serve deadlines) without
// getting conscripted into evaluating someone else's batch. Policies keep
// internal scratch state (nn.MLP is not goroutine-safe; ReferencePolicy has
// a mode detector), so all Action calls — batched and synchronous — are
// serialized by evalMu.
//
// The pending queue is unbounded and submitting never blocks: the bound on
// outstanding requests lives in the callers, all of which have one —
// internal/serve counts the requests each shard's service has not handed
// back and sheds past a multiple of QueueDepth, and Action parks its caller
// until the answer arrives.
type Service struct {
	// MaxBatch caps the requests evaluated between two AfterBatch calls:
	// a pull larger than MaxBatch is answered in chunks of at most MaxBatch.
	MaxBatch int

	// AfterBatch, when non-nil, runs once after every evaluated chunk
	// (including size-1 synchronous evaluations), on the goroutine that
	// evaluated it and outside every service lock. internal/serve uses it
	// to flush coalesced response writes. Set before the first Submit.
	AfterBatch func()

	mu          sync.Mutex
	wake        *sync.Cond // on mu; the evaluator parks here when pending is empty
	policy      Policy
	pending     []inferReq
	synchronous bool
	closed      bool
	evalOn      bool // the evaluator goroutine was started (lazily, by submit)

	// evalMu serializes all policy.Action and ActionBatch calls (stateful
	// policies, policy scratch) and guards the batch scratch below.
	evalMu sync.Mutex
	evalWG sync.WaitGroup

	// Evaluator scratch for BatchPolicy chunks, under evalMu: the chunk's
	// states packed row-major, sized to MaxBatch on first use, and their
	// actions.
	states, actions []float64

	// Telemetry instruments; nil (no-op) unless Instrument was called.
	m serviceMetrics

	// Batches and Requests count service activity for tests/benchmarks.
	// They are guarded by mu: read them through Stats whenever the
	// evaluator may still be running.
	Batches  int64
	Requests int64
}

type serviceMetrics struct {
	requests  *telemetry.Counter
	batches   *telemetry.Counter
	batchSize *telemetry.Histogram
	queueWait *telemetry.Histogram
	evalTime  *telemetry.Histogram
}

// Stats returns the request and batch counts under the service lock. Plain
// field reads are only safe once no concurrent Action or evaluator pull can
// be running; Stats is always safe.
func (s *Service) Stats() (requests, batches int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Requests, s.Batches
}

// Completion receives the action for one submitted request. It is the
// allocation-free alternative to Submit's response channel: the serving
// layer passes a pooled per-request object whose Complete method writes the
// framed response, so steady-state request handling needs no per-request
// channel. Complete runs on the evaluator goroutine (or the submitter's, on
// the synchronous path) and must not block for long — a stalled Complete
// stalls the whole shard.
type Completion interface {
	Complete(action float64)
}

type inferReq struct {
	state []float64
	resp  chan float64
	comp  Completion // non-nil selects the callback delivery path
	// enqueued records wall-clock arrival for the queue-wait histogram;
	// zero when the service is uninstrumented.
	enqueued time.Time
}

// deliver hands the action to whichever delivery route the request carries.
func (r *inferReq) deliver(action float64) {
	if r.comp != nil {
		r.comp.Complete(action)
	} else {
		r.resp <- action
	}
}

// NewService wraps policy (nil selects the reference policy for cfg) in a
// batching service.
func NewService(cfg Config, policy Policy) *Service {
	if policy == nil {
		policy = NewReferencePolicy(cfg)
	}
	return newService(policy, 256, false)
}

// NewSyncService is NewService in synchronous mode: no evaluator goroutine,
// every request is evaluated on its submitter's goroutine before Submit
// returns. Deterministic and single-goroutine, for tests.
func NewSyncService(cfg Config, policy Policy) *Service {
	s := NewService(cfg, policy)
	s.synchronous = true
	return s
}

// Sibling returns a new service in s's mode and with s's MaxBatch, serving
// policy: how a sharded server derives shards 1..n-1 from its template.
func (s *Service) Sibling(policy Policy) *Service {
	return newService(policy, s.MaxBatch, s.synchronous)
}

func newService(policy Policy, maxBatch int, synchronous bool) *Service {
	s := &Service{policy: policy, MaxBatch: maxBatch, synchronous: synchronous}
	s.wake = sync.NewCond(&s.mu)
	return s
}

// SetPolicy atomically swaps the served policy. The evaluator captures the
// policy once per pull, so a swap never drops, errors, or splits a pulled
// batch — this is the primitive behind hot reload in internal/serve.
func (s *Service) SetPolicy(p Policy) {
	if p == nil {
		return
	}
	s.mu.Lock()
	s.policy = p
	s.mu.Unlock()
}

// Policy returns the currently served policy (the one the evaluator's next
// pull will capture). The sharded server uses it to clone a template
// service's policy into sibling shards.
func (s *Service) Policy() Policy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy
}

// Instrument registers the service's batching telemetry on reg: requests
// served, batches evaluated, the batch-size distribution (the quantity
// behind Fig. 16b's sub-linear scaling), and how long requests waited for
// the evaluator. Queue wait is wall-clock (the evaluator runs in real time,
// not simulated time), and so is the time each chunk takes to evaluate: its
// forward passes and handing their answers over, the one view of the
// policy's serving cost that a wrapper around the policy (which hides
// BatchPolicy) does not change.
func (s *Service) Instrument(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = serviceMetrics{
		requests: reg.Counter("core_infer_requests_total", "inference requests served"),
		batches:  reg.Counter("core_infer_batches_total", "batches evaluated (size 1 on the synchronous path)"),
		batchSize: reg.Histogram("core_infer_batch_size", "requests coalesced per batch",
			telemetry.ExponentialBuckets(1, 2, 11)), // 1..1024
		queueWait: reg.Histogram("core_infer_queue_wait_seconds", "wall-clock wait from request arrival to its batch's evaluation",
			telemetry.ExponentialBuckets(1e-5, 4, 10)), // 10 µs .. 2.6 s
		evalTime: reg.Histogram("core_infer_eval_seconds", "wall-clock time to evaluate one batch and deliver its answers",
			telemetry.ExponentialBuckets(1e-6, 4, 10)), // 1 µs .. 0.26 s
	}
}

// ShareInstruments attaches src's already-registered instruments to s, so
// several shard services aggregate into one metric set (the telemetry
// registry panics on duplicate names, so only one shard can register; the
// counters are atomic and safe to share).
func (s *Service) ShareInstruments(src *Service) {
	src.mu.Lock()
	m := src.m
	src.mu.Unlock()
	s.mu.Lock()
	s.m = m
	s.mu.Unlock()
}

// Action evaluates one state, possibly batched with concurrent requests.
// It makes a *Service a Policy: an Agent built on one routes its decisions
// through the shared service.
func (s *Service) Action(state []float64) float64 {
	return <-s.Submit(state)
}

// Submit enqueues one state for evaluation and returns the channel its
// action will be delivered on (buffered: an abandoned result never blocks
// the evaluator). Callers that must bound their wait select on the channel
// and simply walk away on timeout; the request still evaluates with its
// batch, and the late answer is discarded by the buffer.
func (s *Service) Submit(state []float64) <-chan float64 {
	resp := make(chan float64, 1)
	s.submit(inferReq{state: state, resp: resp})
	return resp
}

// SubmitTo enqueues one state for evaluation with callback delivery: comp's
// Complete method receives the action instead of a channel. This is the
// zero-allocation path — the caller owns comp (typically a pooled request
// object) and state must stay valid until Complete runs. Every submitted
// request is completed exactly once, including across Close.
func (s *Service) SubmitTo(state []float64, comp Completion) {
	s.submit(inferReq{state: state, comp: comp})
}

func (s *Service) submit(req inferReq) {
	s.mu.Lock()
	s.Requests++
	s.m.requests.Inc()
	if s.synchronous || s.closed {
		// Synchronous path: evaluate on the caller's goroutine, but off
		// s.mu so concurrent submitters queue on evalMu, not on the
		// bookkeeping lock.
		s.Batches++
		m, p, after := s.m, s.policy, s.AfterBatch
		s.mu.Unlock()
		m.batches.Inc()
		m.batchSize.Observe(1)
		s.evalMu.Lock()
		a := p.Action(req.state)
		s.evalMu.Unlock()
		req.deliver(a)
		if after != nil {
			after()
		}
		return
	}
	if s.m.queueWait != nil {
		req.enqueued = time.Now()
	}
	if !s.evalOn {
		s.evalOn = true
		s.evalWG.Add(1)
		go s.evaluator()
	}
	// The evaluator can only be parked when pending is empty, so the
	// empty→non-empty edge is the one submit that has to wake it.
	if len(s.pending) == 0 {
		s.wake.Signal()
	}
	s.pending = append(s.pending, req)
	s.mu.Unlock()
}

// evaluator is the one batching mechanism: take everything pending, answer
// it, repeat; park only when nothing is pending; exit once closed and
// drained. Two slices ping-pong between the evaluator and the pending queue
// (entries zeroed before reuse so they never pin request states or
// completions for the GC), so steady-state batching allocates nothing.
func (s *Service) evaluator() {
	defer s.evalWG.Done()
	var batch []inferReq
	for {
		s.mu.Lock()
		for len(s.pending) == 0 {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.wake.Wait()
		}
		batch, s.pending = s.pending, batch[:0]
		chunk := s.MaxBatch
		if chunk <= 0 {
			chunk = len(batch)
		}
		s.Batches += int64((len(batch) + chunk - 1) / chunk)
		// One policy per pull: a SetPolicy racing the evaluator never
		// splits a pulled batch across two policies.
		m, p, after := s.m, s.policy, s.AfterBatch
		s.mu.Unlock()

		for rest := batch; len(rest) > 0; {
			n := min(len(rest), chunk)
			s.evaluate(rest[:n], p, m)
			if after != nil {
				after()
			}
			rest = rest[n:]
		}
		clear(batch)
	}
}

// evaluate answers every request of one chunk, in request order: with one
// ActionBatch call when p is a BatchPolicy and the chunk holds more than
// one state, all of one width, and with one Action per request otherwise.
// No lock except evalMu is held, so arrivals keep flowing into the next
// pull during the forward passes.
func (s *Service) evaluate(chunk []inferReq, p Policy, m serviceMetrics) {
	m.batches.Inc()
	m.batchSize.Observe(float64(len(chunk)))
	var start time.Time
	if m.queueWait != nil || m.evalTime != nil {
		start = time.Now()
	}
	for i := range chunk {
		if r := &chunk[i]; !r.enqueued.IsZero() {
			m.queueWait.Observe(start.Sub(r.enqueued).Seconds())
		}
	}
	s.evalMu.Lock()
	if bp, ok := p.(BatchPolicy); ok && len(chunk) > 1 && s.pack(chunk) {
		actions := s.actions[:len(chunk)]
		bp.ActionBatch(s.states, len(chunk), actions)
		for i := range chunk {
			chunk[i].deliver(actions[i])
		}
	} else {
		for i := range chunk {
			r := &chunk[i]
			r.deliver(p.Action(r.state))
		}
	}
	s.evalMu.Unlock()
	if m.evalTime != nil {
		m.evalTime.Observe(time.Since(start).Seconds())
	}
}

// pack copies the chunk's states row-major into s.states and reports
// whether they share one width (a request of another width keeps the
// per-request path, where the policy rejects it as it always has). The
// scratch is sized to MaxBatch rows when first used, so steady-state
// packing allocates nothing. Called under evalMu.
func (s *Service) pack(chunk []inferReq) bool {
	dim := len(chunk[0].state)
	for i := range chunk {
		if len(chunk[i].state) != dim {
			return false
		}
	}
	if n := len(chunk); cap(s.states) < n*dim || cap(s.actions) < n {
		rows := max(n, s.MaxBatch)
		s.states, s.actions = make([]float64, rows*dim), make([]float64, rows)
	}
	s.states = s.states[:len(chunk)*dim]
	for i := range chunk {
		copy(s.states[i*dim:], chunk[i].state)
	}
	return true
}

// Close waits for every outstanding request to be answered, stops the
// evaluator, and makes further Action calls synchronous. Safe to call more
// than once.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.wake.Signal()
	s.mu.Unlock()
	s.evalWG.Wait()
}
