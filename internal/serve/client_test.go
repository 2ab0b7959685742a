package serve

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"
)

// scriptedPeer is a stream endpoint that reads request frames and answers
// only the request IDs the test tells it to.
type scriptedPeer struct {
	addr   string
	answer chan uint64 // request IDs to answer, with action = float64(id)
}

func newScriptedPeer(t *testing.T) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPeer{addr: ln.Addr().String(), answer: make(chan uint64)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		go func() { // drain requests so the client's writes never block
			br := bufio.NewReader(conn)
			var rbuf []byte
			for {
				if _, err := readFrameInto(br, &rbuf); err != nil {
					return
				}
			}
		}()
		for id := range p.answer {
			if _, err := conn.Write(appendServedFrame(nil, id, float64(id), 0, 1)); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		close(p.answer)
		ln.Close()
		<-done
	})
	return p
}

// TestClientTimeoutThenReuse: an unanswered request surfaces as
// ErrInferTimeout after Timeout; the pooled call (whose timer has fired) is
// then reused by a request that is answered, and the first request's late
// answer is dropped without disturbing anything.
func TestClientTimeoutThenReuse(t *testing.T) {
	peer := newScriptedPeer(t)
	client, err := Dial("tcp", peer.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 30 * time.Millisecond

	t0 := time.Now()
	_, err = client.Infer(make([]float64, 4)) // request 1: never answered in time
	if !errors.Is(err, ErrInferTimeout) {
		t.Fatalf("unanswered request: err = %v, want ErrInferTimeout", err)
	}
	if d := time.Since(t0); d < client.Timeout {
		t.Fatalf("timed out after %v, before the %v timeout", d, client.Timeout)
	}

	client.Timeout = 10 * time.Second
	peer.answer <- 1 // late answer to the abandoned call
	go func() { peer.answer <- 2 }()
	res, err := client.Infer(make([]float64, 4)) // request 2
	if err != nil || res.Action != 2 {
		t.Fatalf("request after a timeout: %+v, %v; want request 2's own answer", res, err)
	}
	client.mu.Lock()
	pending := len(client.calls)
	client.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d calls still registered", pending)
	}
}

// TestClientAwaitIgnoresStaleTick: a recycled call's timer can hold a tick
// fired during its previous use (the answer won the race, nobody read the
// tick). The next use must wait for its own timeout, not return at once.
func TestClientAwaitIgnoresStaleTick(t *testing.T) {
	call := &clientCall{ch: make(chan clientResult, 1), timer: time.NewTimer(time.Nanosecond)}
	for len(call.timer.C) == 0 { // the unread tick of the "previous use"
		time.Sleep(time.Millisecond)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		call.ch <- clientResult{res: Result{Action: 0.25}}
	}()
	r, ok := call.await(10 * time.Second)
	if !ok || r.res.Action != 0.25 {
		t.Fatalf("await = %+v, %v: a stale tick was taken for this call's timeout", r, ok)
	}

	// And with no answer, the timeout is still this use's own.
	t0 := time.Now()
	if _, ok := call.await(20 * time.Millisecond); ok {
		t.Fatal("await reported a result nobody sent")
	}
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Fatalf("await gave up after %v, before its 20ms timeout", d)
	}
}

// TestClientDropCallKeepsRacedAnswer: an answer that lands between the
// timer firing and the call being unregistered is returned, not lost.
func TestClientDropCallKeepsRacedAnswer(t *testing.T) {
	c := &Client{calls: make(map[uint64]*clientCall)}
	call := c.getCall()
	c.calls[7] = call
	call.ch <- clientResult{res: Result{Action: 0.75}} // what readLoop does under mu
	r, ok := c.dropCall(7, call)
	if !ok || r.res.Action != 0.75 {
		t.Fatalf("dropCall = %+v, %v; want the buffered answer", r, ok)
	}
	if _, ok := c.dropCall(8, c.getCall()); ok {
		t.Fatal("dropCall invented an answer")
	}
	if len(c.calls) != 0 {
		t.Fatalf("%d calls still registered", len(c.calls))
	}
}

// TestClientInferAllocs pins the pooled call state: a steady-state Infer
// round trip (client and server side together) allocates nothing per
// request; a per-call timer used to cost three allocations.
func TestClientInferAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	_, addr := newTestServer(t, constPolicy{0.5}, Options{Shards: 1}, nil)
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	state := make([]float64, 8)
	infer := func() {
		if res, err := client.InferFlow(1, state); err != nil || res.Action != 0.5 {
			t.Fatalf("Infer = %+v, %v", res, err)
		}
	}
	for i := 0; i < 100; i++ { // warm the pools and buffers on both sides
		infer()
	}
	if n := testing.AllocsPerRun(500, infer); n != 0 {
		t.Errorf("Infer round trip: %v allocs/op, want 0", n)
	}
}
