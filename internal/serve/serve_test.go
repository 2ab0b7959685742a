package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

type constPolicy struct{ v float64 }

func (p constPolicy) Action([]float64) float64 { return p.v }

// slowPolicy stalls every Action call, inducing deadline misses.
type slowPolicy struct {
	delay time.Duration
	v     float64
	calls atomic.Int64
}

func (p *slowPolicy) Action([]float64) float64 {
	p.calls.Add(1)
	time.Sleep(p.delay)
	return p.v
}

// newTestServer builds a server over policy, listening on loopback TCP.
func newTestServer(t *testing.T, policy core.Policy, opts Options, reg *telemetry.Registry) (*Server, string) {
	t.Helper()
	cfg := core.DefaultConfig()
	svc := core.NewService(cfg, policy)
	srv := NewServer(svc, cfg, opts)
	if reg != nil {
		srv.Instrument(reg)
	}
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func TestServeRoundTripTCP(t *testing.T) {
	_, addr := newTestServer(t, constPolicy{0.5}, Options{}, nil)
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 3; i++ {
		res, err := client.Infer(make([]float64, 8))
		if err != nil {
			t.Fatal(err)
		}
		if res.Action != 0.5 || res.Flags != 0 || res.Version != 1 {
			t.Fatalf("res = %+v", res)
		}
	}
}

func TestServeRoundTripUnix(t *testing.T) {
	cfg := core.DefaultConfig()
	svc := core.NewService(cfg, constPolicy{-0.25})
	srv := NewServer(svc, cfg, Options{})
	defer srv.Close()
	sock := t.TempDir() + "/serve.sock"
	if _, err := srv.Listen("unix", sock); err != nil {
		t.Skipf("unix stream unavailable: %v", err)
	}
	client, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.Infer(make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != -0.25 {
		t.Fatalf("res = %+v", res)
	}
}

// TestServeDatagramTransport: one server listening on a stream and a
// datagram endpoint gives the one client the same answer on both — framed
// or bare, the payloads are the same wire format.
func TestServeDatagramTransport(t *testing.T) {
	srv, tcpAddr := newTestServer(t, constPolicy{0.75}, Options{}, nil)
	udpAddr, err := srv.Listen("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range [][2]string{{"tcp", tcpAddr}, {"udp", udpAddr.String()}} {
		client, err := Dial(ep[0], ep[1])
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.InferFlow(9, make([]float64, 8))
		client.Close()
		if err != nil {
			t.Fatalf("%s: %v", ep[0], err)
		}
		if res != (Result{Action: 0.75, Version: 1}) {
			t.Fatalf("%s: Infer = %+v", ep[0], res)
		}
	}
}

// TestDeadlineFallback is the headline guarantee: with a policy far slower
// than the deadline, every sender still gets an answer — the deterministic
// fallback action, flagged in-band, returned near the deadline rather than
// the policy's schedule — and the server's goroutine count stays bounded.
func TestDeadlineFallback(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	cfg := core.DefaultConfig()
	policy := &slowPolicy{delay: 200 * time.Millisecond, v: 0.9}
	reg := telemetry.NewRegistry()
	opts := Options{QueueDepth: 32, Deadline: 5 * time.Millisecond}
	srv, addr := newTestServer(t, policy, opts, reg)

	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	state := make([]float64, cfg.StateDim())
	wantFallback := core.NewReferencePolicy(cfg).FallbackAction(state)

	const n = 6
	var wg sync.WaitGroup
	results := make([]Result, n)
	errs := make([]error, n)
	starts := make([]time.Time, n)
	elapsed := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			starts[i] = time.Now()
			results[i], errs[i] = client.Infer(state)
			elapsed[i] = time.Since(starts[i])
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		r := results[i]
		if !r.Fallback() || !r.DeadlineMissed() {
			t.Fatalf("request %d not flagged as deadline fallback: %+v", i, r)
		}
		if r.Action != wantFallback {
			t.Fatalf("request %d action %v, want fallback %v", i, r.Action, wantFallback)
		}
		// The answer must arrive on the deadline's schedule, not the slow
		// policy's (200ms per call; generous margin for -race CI).
		if elapsed[i] >= 150*time.Millisecond {
			t.Fatalf("request %d took %v — answered by the policy, not the deadline", i, elapsed[i])
		}
	}

	// Bounded concurrency: no goroutine per request. Allow the fixed pool
	// (workers, IO loops, evaluator, timers) plus slack.
	if g := runtime.NumGoroutine(); g > baseGoroutines+8+24 {
		t.Fatalf("goroutines grew to %d from %d", g, baseGoroutines)
	}

	snap := reg.Snapshot()
	if m, _ := snap.Get("serve_deadline_miss_total"); m.Count != n {
		t.Fatalf("deadline_miss = %d, want %d", m.Count, n)
	}
	if m, _ := snap.Get("serve_fallback_total"); m.Count != n {
		t.Fatalf("fallback = %d, want %d", m.Count, n)
	}

	// Drain: the abandoned submissions still evaluate; Shutdown must wait
	// for them and exit cleanly.
	if err := srv.Shutdown(contextWithTimeout(t, 10*time.Second)); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if policy.calls.Load() == 0 {
		t.Fatal("slow policy never ran — requests were lost, not late")
	}
}

// TestShedFallback saturates a 1-worker/1-slot server: overflow must be
// answered immediately with a flagged fallback, never queued unboundedly
// and never errored.
func TestShedFallback(t *testing.T) {
	reg := telemetry.NewRegistry()
	policy := &slowPolicy{delay: 50 * time.Millisecond, v: 0.3}
	_, addr := newTestServer(t, policy,
		Options{QueueDepth: 1, Deadline: time.Second}, reg)

	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 20
	var wg sync.WaitGroup
	var shedCount, okCount atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := client.Infer(make([]float64, 8))
			if err != nil {
				t.Errorf("infer: %v", err)
				return
			}
			if res.Shed() {
				if !res.Fallback() {
					t.Errorf("shed response without fallback flag: %+v", res)
				}
				shedCount.Add(1)
			} else {
				okCount.Add(1)
			}
		}()
	}
	wg.Wait()
	if shedCount.Load() == 0 {
		t.Fatal("no requests were shed despite a saturated pool")
	}
	if okCount.Load() == 0 {
		t.Fatal("every request was shed — admission accepts nothing")
	}
	snap := reg.Snapshot()
	if m, _ := snap.Get("serve_shed_total"); m.Count != shedCount.Load() {
		t.Fatalf("shed counter %d, clients saw %d", m.Count, shedCount.Load())
	}
}

// TestGracefulDrain: every request answered, then a clean shutdown with
// requests == responses and no hanging goroutines.
func TestGracefulDrain(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, addr := newTestServer(t, constPolicy{0.1}, Options{}, reg)

	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := client.Infer(make([]float64, 8)); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()

	if err := srv.Shutdown(contextWithTimeout(t, 5*time.Second)); err != nil {
		t.Fatalf("drain not clean: %v", err)
	}
	snap := reg.Snapshot()
	req, _ := snap.Get("serve_requests_total")
	resp, _ := snap.Get("serve_responses_total")
	if req.Count != n || resp.Count != n {
		t.Fatalf("requests %d responses %d, want %d", req.Count, resp.Count, n)
	}
	// A second shutdown (or Close) is a no-op.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedFramesDoNotKillConnection: oversized and malformed frames
// are counted and skipped; the same connection then serves a valid request.
func TestMalformedFramesDoNotKillConnection(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, addr := newTestServer(t, constPolicy{0.5}, Options{}, reg)
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Hand-craft garbage through the client's connection: an oversized
	// frame announcement with a matching body, then a frame whose payload
	// is not a valid request.
	huge := make([]byte, maxFramePayload+8)
	if err := writeFrame(client.conn, huge); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(client.conn, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	res, err := client.Infer(make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 0.5 {
		t.Fatalf("Infer after garbage = %+v", res)
	}
	snap := reg.Snapshot()
	if m, _ := snap.Get("serve_read_errors_total"); m.Count < 2 {
		t.Fatalf("read errors %d, want >= 2", m.Count)
	}
}

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}
