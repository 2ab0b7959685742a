package core

import (
	"errors"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func TestWireFormatRoundTrip(t *testing.T) {
	state := []float64{0.1, -2.5, math.Pi, 0}
	buf := EncodeRequest(42, state)
	id, got, err := DecodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || len(got) != len(state) {
		t.Fatalf("id=%d len=%d", id, len(got))
	}
	for i := range state {
		if got[i] != state[i] {
			t.Fatalf("state[%d] = %v", i, got[i])
		}
	}
	rbuf := EncodeResponse(42, -0.75)
	rid, action, err := DecodeResponse(rbuf)
	if err != nil || rid != 42 || action != -0.75 {
		t.Fatalf("response round trip: %v %v %v", rid, action, err)
	}
	// Trailing bytes after the base response (the serve-layer trailer) must
	// be transparent.
	rid, action, err = DecodeResponse(append(rbuf, 1, 2, 3, 4, 5, 6, 7, 8))
	if err != nil || rid != 42 || action != -0.75 {
		t.Fatalf("response with trailer: %v %v %v", rid, action, err)
	}
}

func TestDecodeRequestRejectsMalformed(t *testing.T) {
	if _, _, err := DecodeRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("short request accepted")
	}
	// Claims a huge dimension.
	buf := EncodeRequest(1, make([]float64, 4))
	buf[8] = 0xFF
	buf[9] = 0xFF
	buf[10] = 0xFF
	buf[11] = 0x7F
	if _, _, err := DecodeRequest(buf); err == nil {
		t.Fatal("oversized dim accepted")
	}
	// Truncated payload.
	buf2 := EncodeRequest(1, make([]float64, 4))[:20]
	if _, _, err := DecodeRequest(buf2); err == nil {
		t.Fatal("truncated request accepted")
	}
	if _, _, err := DecodeResponse([]byte{1}); err == nil {
		t.Fatal("short response accepted")
	}
}

func TestServiceOverUDP(t *testing.T) {
	cfg := DefaultConfig()
	svc := NewService(cfg, constPolicy{0.5})
	srv, err := ListenAndServe(svc, "udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialService("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	state := make([]float64, cfg.StateDim())
	got, err := client.Infer(state)
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
			cl, err := DialService(network, addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			state := make([]float64, DefaultConfig().StateDim())
			for i := 0; i < perClient; i++ {
				v, err := cl.Infer(state)
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

func TestServiceOverUDPConcurrentClients(t *testing.T) {
	cfg := DefaultConfig()
	// Batches form only while the evaluator is busy, so give it something to
	// be busy with: during one 1 ms evaluation the other 15 clients' requests
	// arrive and are pulled together.
	svc := NewService(cfg, slowPolicy{delay: time.Millisecond, v: 0.25})
	svc.MaxBatch = 64
	srv, err := ListenAndServe(svc, "udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 16
	const perClient = 8
	runConcurrentClients(t, "udp", srv.Addr().String(), 0.25, clients, perClient)
	// UDP responses carry no happens-before edge from the flush goroutine,
	// so read the counters through the service lock.
	requests, batches := svc.Stats()
	if requests != clients*perClient {
		t.Fatalf("service saw %d requests, want %d", requests, clients*perClient)
	}
	// Batching across clients must have occurred.
	if batches >= requests {
		t.Fatalf("no batching: %d batches for %d requests", batches, requests)
	}
}

type errValue float64

func (e errValue) Error() string { return "unexpected action value" }

func TestServiceOverUnixgram(t *testing.T) {
	dir := t.TempDir()
	sock := dir + "/astraea.sock"
	cfg := DefaultConfig()
	svc := NewService(cfg, constPolicy{-0.5})
	srv, err := ListenAndServe(svc, "unixgram", sock)
	if err != nil {
		t.Skipf("unixgram unavailable: %v", err)
	}
	defer srv.Close()

	client, err := DialService("unixgram", sock)
	if err != nil {
		t.Skipf("unixgram dial: %v", err)
	}
	defer client.Close()
	got, err := client.Infer(make([]float64, cfg.StateDim()))
	if err != nil {
		t.Fatal(err)
	}
	if got != -0.5 {
		t.Fatalf("Infer over unixgram = %v", got)
	}
}

func TestServiceOverUnixgramConcurrentClients(t *testing.T) {
	dir := t.TempDir()
	sock := dir + "/astraea.sock"
	svc := NewService(DefaultConfig(), constPolicy{0.75})
	srv, err := ListenAndServe(svc, "unixgram", sock)
	if err != nil {
		t.Skipf("unixgram unavailable: %v", err)
	}
	defer srv.Close()
	runConcurrentClients(t, "unixgram", sock, 0.75, 8, 8)
}

func TestUnixgramClientSocketCleanup(t *testing.T) {
	dir := t.TempDir()
	sock := dir + "/astraea.sock"
	svc := NewService(DefaultConfig(), constPolicy{0})
	srv, err := ListenAndServe(svc, "unixgram", sock)
	if err != nil {
		t.Skipf("unixgram unavailable: %v", err)
	}
	defer srv.Close()

	client, err := DialService("unixgram", sock)
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

	client, err := DialService("udp", sink.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
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
// flight must surface ErrClientClosed — the old behaviour returned (0, nil),
// indistinguishable from a real action.
func TestClientCloseFailsOutstanding(t *testing.T) {
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	client, err := DialService("udp", sink.LocalAddr().String())
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

// slowPolicy stalls every Action call, simulating an expensive model.
type slowPolicy struct {
	delay time.Duration
	v     float64
}

func (p slowPolicy) Action([]float64) float64 {
	time.Sleep(p.delay)
	return p.v
}

// TestServerShedsWhenPoolSaturated floods a 1-worker/1-slot server and
// checks the overflow is counted as drops rather than spawning goroutines.
func TestServerShedsWhenPoolSaturated(t *testing.T) {
	svc := NewService(DefaultConfig(), slowPolicy{delay: 20 * time.Millisecond})
	srv, err := ListenAndServeWith(svc, "udp", "127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := EncodeRequest(1, make([]float64, 4))
	for i := 0; i < 200; i++ {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Dropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no drops recorded under flood")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerSurvivesMalformedDatagrams sends oversized-dim and truncated
// frames and then verifies the server still answers a valid request.
func TestServerSurvivesMalformedDatagrams(t *testing.T) {
	cfg := DefaultConfig()
	svc := NewService(cfg, constPolicy{0.5})
	srv, err := ListenAndServe(svc, "udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Oversized declared dimension.
	over := EncodeRequest(7, make([]float64, 4))
	over[8], over[9], over[10], over[11] = 0xFF, 0xFF, 0xFF, 0x7F
	// Truncated payload, and pure garbage.
	trunc := EncodeRequest(8, make([]float64, 8))[:24]
	for _, b := range [][]byte{over, trunc, {1, 2}, {}} {
		if len(b) == 0 {
			continue // zero-length UDP writes are valid but pointless here
		}
		if _, err := raw.Write(b); err != nil {
			t.Fatal(err)
		}
	}

	client, err := DialService("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 2 * time.Second
	got, err := client.Infer(make([]float64, cfg.StateDim()))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Fatalf("Infer after malformed flood = %v", got)
	}
}

// TestServerCloseWithRequestsInFlight closes the server while a slow policy
// still holds requests; Close must not hang or panic, and the abandoned
// client call must time out cleanly.
func TestServerCloseWithRequestsInFlight(t *testing.T) {
	svc := NewService(DefaultConfig(), slowPolicy{delay: 100 * time.Millisecond, v: 0.5})
	srv, err := ListenAndServe(svc, "udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client, err := DialService("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 500 * time.Millisecond

	res := make(chan error, 1)
	go func() {
		_, err := client.Infer(make([]float64, 4))
		res <- err
	}()
	time.Sleep(20 * time.Millisecond) // request reaches the worker pool

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close hung with requests in flight")
	}
	select {
	case err := <-res:
		// Either the reply raced out before the socket died (nil) or the
		// reply was lost and the client timed out; both are datagram-legal.
		if err != nil && !errors.Is(err, ErrInferTimeout) && !errors.Is(err, ErrClientClosed) {
			t.Fatalf("unexpected client error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client call never completed after server close")
	}
}
