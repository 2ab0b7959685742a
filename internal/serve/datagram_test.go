package serve

// The datagram transports end to end: Client against Server on udp and
// unixgram endpoints, where each payload travels bare, one per datagram.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

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

// listenDatagram boots a server over policy on one datagram endpoint,
// instrumented on reg when it is non-nil, and closes it when the test ends.
func listenDatagram(t *testing.T, policy core.Policy, opts Options, reg *telemetry.Registry, network, address string) (*Server, string) {
	t.Helper()
	cfg := core.DefaultConfig()
	srv := NewServer(core.NewService(cfg, policy), cfg, opts)
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

func zeroState() []float64 { return make([]float64, core.DefaultConfig().StateDim()) }

// dialDatagram dials addr and closes the client when the test ends.
func dialDatagram(t *testing.T, network, addr string) *Client {
	t.Helper()
	client, err := Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestServiceOverUDP: a datagram answer carries the serve trailer to the
// caller, here the version of the policy that answered (moved off its
// initial 1 so a zero or default cannot pass).
func TestServiceOverUDP(t *testing.T) {
	srv, addr := listenDatagram(t, constPolicy{0.5}, Options{}, nil, "udp", "127.0.0.1:0")
	if v := srv.SetPolicy(constPolicy{0.5}); v != 2 {
		t.Fatalf("SetPolicy = version %d, want 2", v)
	}
	res, err := dialDatagram(t, "udp", addr).Infer(zeroState())
	if err != nil {
		t.Fatal(err)
	}
	if res != (Result{Action: 0.5, Version: 2}) {
		t.Fatalf("Infer over UDP = %+v, want action 0.5 at version 2", res)
	}
}

// runConcurrentClients drives the server at addr with several concurrent
// clients and verifies every answer.
func runConcurrentClients(t *testing.T, network, addr string, want Result, clients, perClient int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(network, addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				res, err := cl.Infer(zeroState())
				if err != nil {
					errs <- err
					return
				}
				if res != want {
					errs <- errResult(res)
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

type errResult Result

func (e errResult) Error() string { return fmt.Sprintf("unexpected answer %+v", Result(e)) }

func TestServiceOverUDPConcurrentClients(t *testing.T) {
	// Batches form only while the evaluator is busy, so give it something to
	// be busy with: during one 1 ms evaluation the other 15 clients' requests
	// arrive and are pulled together. One shard, so they share an evaluator.
	srv, addr := listenDatagram(t, &slowPolicy{delay: time.Millisecond, v: 0.25},
		Options{Shards: 1, Deadline: 5 * time.Second}, nil, "udp", "127.0.0.1:0")
	const clients = 16
	const perClient = 8
	runConcurrentClients(t, "udp", addr, Result{Action: 0.25, Version: 1}, clients, perClient)
	requests, batches := srv.Stats()
	if requests != clients*perClient {
		t.Fatalf("service saw %d requests, want %d", requests, clients*perClient)
	}
	if batches >= requests {
		t.Fatalf("no batching: %d batches for %d requests", batches, requests)
	}
}

func TestServiceOverUnixgram(t *testing.T) {
	_, sock := listenDatagram(t, constPolicy{-0.5}, Options{}, nil, "unixgram", t.TempDir()+"/astraea.sock")
	res, err := dialDatagram(t, "unixgram", sock).Infer(zeroState())
	if err != nil {
		t.Fatal(err)
	}
	if res != (Result{Action: -0.5, Version: 1}) {
		t.Fatalf("Infer over unixgram = %+v", res)
	}
}

func TestServiceOverUnixgramConcurrentClients(t *testing.T) {
	_, sock := listenDatagram(t, constPolicy{0.75}, Options{}, nil, "unixgram", t.TempDir()+"/astraea.sock")
	runConcurrentClients(t, "unixgram", sock, Result{Action: 0.75, Version: 1}, 8, 8)
}

// TestServerDropsUnboundUnixgramSender: a unixgram sender that never bound
// its socket has no address to answer, and ReadFrom reports it as nil. The
// server must count the request as a read error and keep serving — it used
// to hash the nil address and take the whole process down.
func TestServerDropsUnboundUnixgramSender(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, sock := listenDatagram(t, constPolicy{0.5}, Options{}, reg, "unixgram", t.TempDir()+"/astraea.sock")

	raw, err := net.DialUnix("unixgram", nil, &net.UnixAddr{Name: sock, Net: "unixgram"})
	if err != nil {
		t.Skipf("unbound unixgram dial: %v", err)
	}
	defer raw.Close()
	if _, err := raw.Write(appendFlowRequest(nil, 1, zeroState(), 0, false)[4:]); err != nil {
		t.Fatal(err)
	}

	client := dialDatagram(t, "unixgram", sock)
	client.Timeout = 2 * time.Second
	res, err := client.Infer(zeroState())
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 0.5 {
		t.Fatalf("Infer after an unbound sender = %+v", res)
	}
	// One socket reads in arrival order, so the unbound request was handled
	// before the bound one was answered.
	if n := counter(reg, "serve_read_errors_total"); n != 1 {
		t.Fatalf("serve_read_errors_total = %d, want 1", n)
	}
	if n := counter(reg, "serve_requests_total"); n != 1 {
		t.Fatalf("serve_requests_total = %d, want 1 (the bound client's)", n)
	}
}

// TestUnixgramClientSocketCleanup: a unixgram client binds its own socket
// file next to the server's path so replies have a return address, and
// removes it on Close. A bound sink socket stands in for the server.
func TestUnixgramClientSocketCleanup(t *testing.T) {
	sock := t.TempDir() + "/astraea.sock"
	sink, err := net.ListenPacket("unixgram", sock)
	if err != nil {
		t.Skipf("unixgram unavailable: %v", err)
	}
	defer sink.Close()

	client, err := Dial("unixgram", sock)
	if err != nil {
		t.Skipf("unixgram dial: %v", err)
	}
	if _, err := os.Stat(client.localPath); err != nil {
		t.Fatalf("client socket file missing while open: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(client.localPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("client socket file not removed on Close: %v", err)
	}
}

// TestServerUnixgramRestartsOnSamePath: Shutdown removes the socket file
// of a unixgram endpoint, so a server restarted on the same path binds it
// again instead of failing with "address already in use".
func TestServerUnixgramRestartsOnSamePath(t *testing.T) {
	sock := t.TempDir() + "/astraea.sock"
	cfg := core.DefaultConfig()
	for round := 0; round < 2; round++ {
		srv := NewServer(core.NewService(cfg, constPolicy{0.25}), cfg, Options{})
		if _, err := srv.Listen("unixgram", sock); err != nil {
			srv.Close()
			if round == 0 {
				t.Skipf("unixgram unavailable: %v", err)
			}
			t.Fatalf("restart on %s: %v", sock, err)
		}
		client, err := Dial("unixgram", sock)
		if err != nil {
			t.Fatal(err)
		}
		client.Timeout = 2 * time.Second
		res, err := client.Infer(zeroState())
		client.Close()
		if err != nil || res.Action != 0.25 {
			t.Fatalf("round %d: Infer = %+v, %v", round, res, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = srv.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(sock); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("round %d: socket file left after Shutdown (stat err %v)", round, err)
		}
	}
}

// TestServiceOverUDPAfterPortUnreachable: a request to a udp port with no
// listener draws an ICMP port-unreachable, which a connected socket reports
// as ECONNREFUSED on its next read. That request is lost, not the client:
// once a server listens on the port, the same client is answered.
func TestServiceOverUDPAfterPortUnreachable(t *testing.T) {
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr().String()
	probe.Close()

	client := dialDatagram(t, "udp", addr)
	client.Timeout = 200 * time.Millisecond
	if res, err := client.Infer(zeroState()); err == nil {
		t.Fatalf("Infer against a closed port answered %+v", res)
	}

	cfg := core.DefaultConfig()
	srv := NewServer(core.NewService(cfg, constPolicy{0.5}), cfg, Options{})
	t.Cleanup(func() { srv.Close() })
	if _, err := srv.Listen("udp", addr); err != nil {
		t.Skipf("port of %s taken meanwhile: %v", addr, err)
	}
	client.Timeout = 2 * time.Second
	res, err := client.Infer(zeroState())
	if err != nil {
		t.Fatalf("Infer once the port listens: %v", err)
	}
	if res.Action != 0.5 {
		t.Fatalf("Infer once the port listens = %+v", res)
	}
}

// TestClientInferTimeout is the regression test for the lost-datagram hang:
// a server that never answers must produce ErrInferTimeout, not a caller
// parked forever.
func TestClientInferTimeout(t *testing.T) {
	// A bound UDP socket that reads nothing: every request datagram is
	// accepted by the kernel and never answered.
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	client := dialDatagram(t, "udp", sink.LocalAddr().String())
	client.Timeout = 50 * time.Millisecond

	start := time.Now()
	_, err = client.Infer(make([]float64, 4))
	if !errors.Is(err, ErrInferTimeout) {
		t.Fatalf("err = %v, want ErrInferTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestClientCloseFailsOutstanding: closing the connection with a call in
// flight must surface ErrClientClosed, never a zero Result that reads like
// a real action.
func TestClientCloseFailsOutstanding(t *testing.T) {
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	client, err := Dial("udp", sink.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = 0 // wait forever: only the close may release the call

	res := make(chan error, 1)
	go func() {
		_, err := client.Infer(make([]float64, 4))
		res <- err
	}()
	// Let the request get written and the reader parked.
	time.Sleep(20 * time.Millisecond)
	client.Close()
	select {
	case err := <-res:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("err = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Infer still blocked after Close")
	}
}

// TestServerShedsWhenPoolSaturated floods a one-slot shard whose policy has
// stalled: every request past QueueDepth is shed at admission and answered
// at once with the fallback action, none dropped, and each answer reaches
// the datagram caller flagged Shed and Fallback. The admitted request is
// still answered by the policy once it resumes.
func TestServerShedsWhenPoolSaturated(t *testing.T) {
	reg := telemetry.NewRegistry()
	gate := newGatePolicy(0.25)
	_, addr := listenDatagram(t, gate, Options{Shards: 1, QueueDepth: 1, Deadline: 10 * time.Second},
		reg, "udp", "127.0.0.1:0")
	var release sync.Once
	defer release.Do(func() { close(gate.open) })

	first := dialDatagram(t, "udp", addr)
	admitted := make(chan error, 1)
	go func() {
		res, err := first.Infer(zeroState())
		if err == nil && res.Action != gate.v {
			err = errResult(res)
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
	runConcurrentClients(t, "udp", addr, Result{Action: fallback, Flags: FlagFallback | FlagShed, Version: 1},
		clients, perClient)
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
	_, addr := listenDatagram(t, constPolicy{0.5}, Options{}, reg, "udp", "127.0.0.1:0")

	raw, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Oversized declared dimension.
	over := appendFlowRequest(nil, 7, make([]float64, 4), 0, false)[4:]
	over[8], over[9], over[10], over[11] = 0xFF, 0xFF, 0xFF, 0x7F
	// Truncated payload, and pure garbage.
	trunc := appendFlowRequest(nil, 8, make([]float64, 8), 0, false)[4:28]
	for _, b := range [][]byte{over, trunc, {1, 2}} {
		if _, err := raw.Write(b); err != nil {
			t.Fatal(err)
		}
	}

	client := dialDatagram(t, "udp", addr)
	client.Timeout = 2 * time.Second
	res, err := client.Infer(zeroState())
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 0.5 {
		t.Fatalf("Infer after malformed flood = %+v", res)
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
	srv, addr := listenDatagram(t, gate, Options{Shards: 1, Deadline: 10 * time.Second},
		reg, "udp", "127.0.0.1:0")
	var release sync.Once
	defer release.Do(func() { close(gate.open) })

	const n = 8
	type result struct {
		res Result
		err error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			cl, err := Dial("udp", addr)
			if err != nil {
				results <- result{err: err}
				return
			}
			defer cl.Close()
			res, err := cl.Infer(zeroState())
			results <- result{res, err}
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
		if r.err != nil || r.res != (Result{Action: 0.5, Version: 1}) {
			t.Fatalf("in-flight request: %+v, err %v; want 0.5 from the policy", r.res, r.err)
		}
	}
}
