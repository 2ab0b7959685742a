package serve

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
)

// scriptedPeer is a stream endpoint that reads request frames and answers
// only the request IDs the test tells it to, each once it has read that
// request (an answer that beat its request would find no call to match).
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
		// Sized past any test's request count, so draining never waits
		// for the answer loop.
		received := make(chan uint64, 64)
		go func() { // drain requests so the client's writes never block
			defer close(received)
			br := bufio.NewReader(conn)
			var rbuf []byte
			for {
				payload, err := readFrameInto(br, &rbuf)
				if err != nil {
					return
				}
				if id, _, err := decodeRequestInto(payload, nil); err == nil {
					received <- id
				}
			}
		}()
		seen := make(map[uint64]bool)
		for id := range p.answer {
			for !seen[id] {
				got, ok := <-received
				if !ok {
					return
				}
				seen[got] = true
			}
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

// countingConn counts the writes a client makes on its connection. The
// write numbered failAt (when positive) waits for release, if set, and
// fails, as does every write after it.
type countingConn struct {
	net.Conn
	writes  atomic.Int64
	failAt  int64
	release chan struct{}
}

var errInjectedWrite = errors.New("injected write failure")

func (c *countingConn) Write(p []byte) (int, error) {
	n := c.writes.Add(1)
	if c.failAt > 0 && n >= c.failAt {
		if n == c.failAt && c.release != nil {
			<-c.release
		}
		return 0, errInjectedWrite
	}
	return c.Conn.Write(p)
}

// dialCounting dials a live test server and wraps the client's connection
// before its first call starts the read loop.
func dialCounting(t *testing.T, addr string, failAt int64) (*Client, *countingConn) {
	t.Helper()
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	cc := &countingConn{Conn: client.conn, failAt: failAt}
	client.conn = cc
	return client, cc
}

// TestClientCoalescesWrites: concurrent callers share write(2)s, each
// still gets its own answer, and a serial caller is written at once — one
// write per call, never held back for company.
func TestClientCoalescesWrites(t *testing.T) {
	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(31))
	policy, err := core.QuantizeMLPPolicy(&core.MLPPolicy{Net: nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 256, 128, 64, 1)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.ClonePolicy(policy)
	// A deadline no test machine misses: every answer must be the policy's.
	_, addr := newTestServer(t, policy, Options{Deadline: time.Minute}, nil)
	states := make([][]float64, 64)
	want := make([]float64, len(states))
	for i := range states {
		states[i] = core.SampleCalibrationState(cfg, rng)
		want[i] = oracle.Action(states[i])
	}

	t.Run("concurrent", func(t *testing.T) {
		client, cc := dialCounting(t, addr, 0)
		const callers, perCaller = 256, 100
		start := make(chan struct{})
		errs := make(chan error, callers)
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < perCaller; i++ {
					k := (g*perCaller + i) % len(states)
					res, err := client.InferFlow(uint64(g), states[k])
					if err != nil {
						errs <- err
						return
					}
					if res.Action != want[k] || res.Fallback() {
						errs <- fmt.Errorf("caller %d call %d: got %+v, want action %v", g, i, res, want[k])
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		calls, writes := int64(callers*perCaller), cc.writes.Load()
		t.Logf("%d calls in %d writes (%.1f requests per write)", calls, writes, float64(calls)/float64(writes))
		if writes > calls/4 {
			t.Errorf("%d writes for %d concurrent calls, want ≤ %d", writes, calls, calls/4)
		}
	})

	t.Run("serial", func(t *testing.T) {
		client, cc := dialCounting(t, addr, 0)
		const calls = 100
		for i := 0; i < calls; i++ {
			k := i % len(states)
			if res, err := client.InferFlow(1, states[k]); err != nil || res.Action != want[k] {
				t.Fatalf("call %d: %+v, %v", i, res, err)
			}
			if w := cc.writes.Load(); w != int64(i+1) {
				t.Fatalf("after %d serial calls: %d writes, want one per call", i+1, w)
			}
		}
	})
}

// TestClientWriteFailureFailsQueue: when the writer's write fails, the
// writer gets its send error, every call queued behind it gets
// ErrClientClosed at once (not at Timeout), and later calls fail at once.
func TestClientWriteFailureFailsQueue(t *testing.T) {
	_, addr := newTestServer(t, echoPolicy{}, Options{Shards: 1}, nil)
	client, cc := dialCounting(t, addr, 2)
	cc.release = make(chan struct{})
	client.Timeout = 10 * time.Second
	state := make([]float64, core.DefaultConfig().StateDim())
	if _, err := client.InferFlow(1, state); err != nil { // write 1 succeeds
		t.Fatal(err)
	}

	writerErr := make(chan error, 1)
	go func() { // becomes the writer; write 2 blocks until released, then fails
		_, err := client.InferFlow(1, state)
		writerErr <- err
	}()
	for cc.writes.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	const queued = 16
	frame := len(appendFlowRequest(nil, 0, state, 1, true))
	type outcome struct {
		err error
		d   time.Duration
	}
	out := make(chan outcome, queued)
	for i := 0; i < queued; i++ {
		go func() {
			t0 := time.Now()
			_, err := client.InferFlow(1, state)
			out <- outcome{err, time.Since(t0)}
		}()
	}
	// Wait until every queued caller has appended its frame behind the
	// writer. TryLock: a client that held wmu across the blocked write would
	// hang this loop instead of failing it.
	for deadline := time.Now().Add(5 * time.Second); ; {
		n := -1
		if client.wmu.TryLock() {
			n = len(client.wbuf)
			client.wmu.Unlock()
		}
		if n == queued*frame {
			break
		}
		if time.Now().After(deadline) {
			close(cc.release)
			t.Fatalf("queued frames behind a blocked writer: %d bytes after 5s, want %d frames", n, queued)
		}
		time.Sleep(time.Millisecond)
	}
	close(cc.release)

	if err := <-writerErr; !errors.Is(err, errInjectedWrite) {
		t.Errorf("writer: err = %v, want its send error", err)
	}
	for i := 0; i < queued; i++ {
		o := <-out
		if !errors.Is(o.err, ErrClientClosed) {
			t.Errorf("queued caller: err = %v, want ErrClientClosed", o.err)
		}
		if o.d > 2*time.Second {
			t.Errorf("queued caller failed after %v; the queue must fail at once, not at Timeout", o.d)
		}
	}
	t0 := time.Now()
	if _, err := client.InferFlow(1, state); !errors.Is(err, ErrClientClosed) {
		t.Errorf("call after the failure: err = %v, want ErrClientClosed", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("call after the failure took %v, want at once", d)
	}
	if w := cc.writes.Load(); w != 2 {
		t.Errorf("%d writes, want 2: nothing is written after a failed write", w)
	}
}

// TestClientTimeoutWhenPeerStopsReading: Timeout bounds every call even
// when the peer accepts and never reads. Once the socket buffers fill, a
// write blocks; its write deadline fails it, which closes the connection
// and fails every queued call, so no caller stays blocked past ≈ 2×Timeout.
func TestClientTimeoutWhenPeerStopsReading(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn // held open, never read
		}
	}()
	client, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	defer func() {
		select {
		case conn := <-accepted:
			conn.Close()
		default:
		}
	}()
	const timeout = 250 * time.Millisecond
	client.Timeout = timeout

	// 4 KiB frames: a few rounds of the callers below outgrow the socket
	// buffers, so a write blocks within a second or so.
	state := make([]float64, 512)
	const callers = 256
	var blocked atomic.Int32
	slowest := make(chan time.Duration, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		blocked.Add(1)
		go func() {
			defer wg.Done()
			defer blocked.Add(-1)
			var worst time.Duration
			for i := 0; i < 100; i++ {
				t0 := time.Now()
				_, err := client.Infer(state)
				if d := time.Since(t0); d > worst {
					worst = d
				}
				if !errors.Is(err, ErrInferTimeout) {
					break // the connection failed: the call returned, which is all this test asks
				}
			}
			slowest <- worst
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * timeout):
		n := blocked.Load()
		client.Close() // unblock the stuck calls so the test can exit
		<-done
		t.Fatalf("%d of %d callers still blocked after %v with a %v Timeout", n, callers, 30*timeout, timeout)
	}
	close(slowest)
	var worst time.Duration
	for d := range slowest {
		worst = max(worst, d)
	}
	t.Logf("slowest call: %v", worst)
	if worst > 2*timeout {
		t.Errorf("a call took %v, want ≤ 2×Timeout = %v", worst, 2*timeout)
	}
}
