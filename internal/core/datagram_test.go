package core_test

// The datagram transport end to end: core's codec and ServiceClient against
// the one datagram server, internal/serve's Server, on udp and unixgram
// endpoints. These are external tests so they can import serve, which
// imports core.

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

type constPolicy struct{ v float64 }

func (p constPolicy) Action([]float64) float64 { return p.v }

// slowPolicy stalls every Action call, simulating an expensive model.
type slowPolicy struct {
	delay time.Duration
	v     float64
}

func (p slowPolicy) Action([]float64) float64 {
	time.Sleep(p.delay)
	return p.v
}

// gatePolicy parks every Action call until open is closed, and signals
// entered when a call begins: a stalled model without a sleep to race.
type gatePolicy struct {
	entered chan struct{}
	open    chan struct{}
	v       float64
}

func newGatePolicy(v float64) gatePolicy {
	return gatePolicy{entered: make(chan struct{}, 1), open: make(chan struct{}), v: v}
}

func (p gatePolicy) Action([]float64) float64 {
	select {
	case p.entered <- struct{}{}:
	default:
	}
	<-p.open
	return p.v
}

// listen boots a server over policy on one datagram endpoint, instrumented
// on reg when it is non-nil, and closes it when the test ends.
func listen(t *testing.T, policy core.Policy, opts serve.Options, reg *telemetry.Registry, network, address string) (*serve.Server, string) {
	t.Helper()
	cfg := core.DefaultConfig()
	srv := serve.NewServer(core.NewService(cfg, policy), cfg, opts)
	if reg != nil {
		srv.Instrument(reg)
	}
	t.Cleanup(func() { srv.Close() })
	addr, err := srv.Listen(network, address)
	if err != nil {
		if network == "unixgram" {
			t.Skipf("unixgram unavailable: %v", err)
		}
		t.Fatal(err)
	}
	return srv, addr.String()
}

func counter(reg *telemetry.Registry, name string) int64 {
	m, _ := reg.Snapshot().Get(name)
	return m.Count
}

func zeroState() []float64 { return make([]float64, core.DefaultConfig().StateDim()) }

func TestServiceOverUDP(t *testing.T) {
	_, addr := listen(t, constPolicy{0.5}, serve.Options{}, nil, "udp", "127.0.0.1:0")
	client, err := core.DialService("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got, err := client.Infer(zeroState())
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Fatalf("Infer over UDP = %v", got)
	}
}

// runConcurrentClients drives the server at addr with several concurrent
// clients and verifies every response value.
func runConcurrentClients(t *testing.T, network, addr string, want float64, clients, perClient int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := core.DialService(network, addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				v, err := cl.Infer(zeroState())
				if err != nil {
					errs <- err
					return
				}
				if v != want {
					errs <- errValue(v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errValue float64

func (e errValue) Error() string { return "unexpected action value" }

func TestServiceOverUDPConcurrentClients(t *testing.T) {
	// Batches form only while the evaluator is busy, so give it something to
	// be busy with: during one 1 ms evaluation the other 15 clients' requests
	// arrive and are pulled together. One shard, so they share an evaluator.
	srv, addr := listen(t, slowPolicy{delay: time.Millisecond, v: 0.25},
		serve.Options{Shards: 1, Deadline: 5 * time.Second}, nil, "udp", "127.0.0.1:0")
	const clients = 16
	const perClient = 8
	runConcurrentClients(t, "udp", addr, 0.25, clients, perClient)
	requests, batches := srv.Stats()
	if requests != clients*perClient {
		t.Fatalf("service saw %d requests, want %d", requests, clients*perClient)
	}
	if batches >= requests {
		t.Fatalf("no batching: %d batches for %d requests", batches, requests)
	}
}

func TestServiceOverUnixgram(t *testing.T) {
	_, sock := listen(t, constPolicy{-0.5}, serve.Options{}, nil, "unixgram", t.TempDir()+"/astraea.sock")
	client, err := core.DialService("unixgram", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got, err := client.Infer(zeroState())
	if err != nil {
		t.Fatal(err)
	}
	if got != -0.5 {
		t.Fatalf("Infer over unixgram = %v", got)
	}
}

func TestServiceOverUnixgramConcurrentClients(t *testing.T) {
	_, sock := listen(t, constPolicy{0.75}, serve.Options{}, nil, "unixgram", t.TempDir()+"/astraea.sock")
	runConcurrentClients(t, "unixgram", sock, 0.75, 8, 8)
}

// TestServerShedsWhenPoolSaturated floods a one-slot shard whose policy has
// stalled: every request past QueueDepth is shed at admission and answered
// at once with the fallback action, none dropped, and the admitted request
// is still answered by the policy once it resumes.
func TestServerShedsWhenPoolSaturated(t *testing.T) {
	reg := telemetry.NewRegistry()
	gate := newGatePolicy(0.25)
	_, addr := listen(t, gate, serve.Options{Shards: 1, QueueDepth: 1, Deadline: 10 * time.Second},
		reg, "udp", "127.0.0.1:0")
	var release sync.Once
	defer release.Do(func() { close(gate.open) })

	client, err := core.DialService("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	admitted := make(chan error, 1)
	go func() {
		v, err := client.Infer(zeroState())
		if err == nil && v != gate.v {
			err = errValue(v)
		}
		admitted <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first request never reached the policy")
	}

	const clients, perClient = 8, 25
	fallback := core.NewReferencePolicy(core.DefaultConfig()).FallbackAction(zeroState())
	if fallback == gate.v {
		t.Fatalf("fallback %v is indistinguishable from the policy's action", fallback)
	}
	runConcurrentClients(t, "udp", addr, fallback, clients, perClient)
	if shed := counter(reg, "serve_shed_total"); shed != clients*perClient {
		t.Fatalf("serve_shed_total = %d, want %d", shed, clients*perClient)
	}

	release.Do(func() { close(gate.open) })
	if err := <-admitted; err != nil {
		t.Fatalf("admitted request, want the policy's %v: %v", gate.v, err)
	}
}

// TestServerSurvivesMalformedDatagrams sends oversized-dim, truncated and
// garbage datagrams, then verifies the server still answers a valid request
// and counted each bad one as a read error.
func TestServerSurvivesMalformedDatagrams(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, addr := listen(t, constPolicy{0.5}, serve.Options{}, reg, "udp", "127.0.0.1:0")

	raw, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Oversized declared dimension.
	over := core.EncodeRequest(7, make([]float64, 4))
	over[8], over[9], over[10], over[11] = 0xFF, 0xFF, 0xFF, 0x7F
	// Truncated payload, and pure garbage.
	trunc := core.EncodeRequest(8, make([]float64, 8))[:24]
	for _, b := range [][]byte{over, trunc, {1, 2}} {
		if _, err := raw.Write(b); err != nil {
			t.Fatal(err)
		}
	}

	client, err := core.DialService("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 2 * time.Second
	got, err := client.Infer(zeroState())
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Fatalf("Infer after malformed flood = %v", got)
	}
	// One socket reads in arrival order, so the bad datagrams were handled
	// before the valid one was answered.
	if n := counter(reg, "serve_read_errors_total"); n != 3 {
		t.Fatalf("serve_read_errors_total = %d, want 3", n)
	}
}

// TestServerCloseWithRequestsInFlight shuts the server down while datagram
// requests are parked behind a stalled policy: Shutdown must wait for them,
// and every admitted request must be answered by the policy before the
// socket closes.
func TestServerCloseWithRequestsInFlight(t *testing.T) {
	reg := telemetry.NewRegistry()
	gate := newGatePolicy(0.5)
	srv, addr := listen(t, gate, serve.Options{Shards: 1, Deadline: 10 * time.Second},
		reg, "udp", "127.0.0.1:0")
	var release sync.Once
	defer release.Do(func() { close(gate.open) })

	const n = 8
	type result struct {
		v   float64
		err error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			cl, err := core.DialService("udp", addr)
			if err != nil {
				results <- result{err: err}
				return
			}
			defer cl.Close()
			v, err := cl.Infer(zeroState())
			results <- result{v, err}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for counter(reg, "serve_requests_total") < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted", counter(reg, "serve_requests_total"), n)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(ctx) }()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with requests still parked", err)
	case <-time.After(50 * time.Millisecond):
	}
	release.Do(func() { close(gate.open) })
	if err := <-shut; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil || r.v != 0.5 {
			t.Fatalf("in-flight request: action %v, err %v; want 0.5 from the policy", r.v, r.err)
		}
	}
}
