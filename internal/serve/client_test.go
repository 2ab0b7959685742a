package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
)

// scriptedPeer is a stream endpoint that reads request frames and answers
// only the requests the test tells it to, by the order they arrived in: n
// on answer means "answer the n-th request received (from 1), with action
// float64(n)", once that request has been read (an answer that beat its
// request would find no call to match).
type scriptedPeer struct {
	addr   string
	answer chan int
}

func newScriptedPeer(t *testing.T) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPeer{addr: ln.Addr().String(), answer: make(chan int)}
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
		var ids []uint64 // request IDs in arrival order
		for n := range p.answer {
			for len(ids) < n {
				id, ok := <-received
				if !ok {
					return
				}
				ids = append(ids, id)
			}
			if _, err := conn.Write(appendServedFrame(nil, ids[n-1], float64(n), 0, 1)); err != nil {
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

// pending returns how many calls the client has registered.
func (c *Client) pending() (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.slots {
		if s.ch != nil {
			n++
		}
	}
	return n
}

// TestClientTimeoutThenReuse: an unanswered request surfaces as
// ErrInferTimeout after Timeout; its freed slot and pooled result channel
// are then reused by a request that is answered, and the first request's
// late answer is dropped without disturbing anything.
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
	if n := client.pending(); n != 0 {
		t.Fatalf("%d calls still registered", n)
	}
}

// TestClientLateAnswerToReusedSlot: a call times out, the next call takes
// the same slot, and only then does the first call's answer arrive. The
// slot's generation no longer matches that answer's request ID, so it is
// dropped: the new call gets its own answer, not the stale one.
func TestClientLateAnswerToReusedSlot(t *testing.T) {
	peer := newScriptedPeer(t)
	client, err := Dial("tcp", peer.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 30 * time.Millisecond
	if _, err := client.Infer(make([]float64, 4)); !errors.Is(err, ErrInferTimeout) {
		t.Fatalf("unanswered request: err = %v, want ErrInferTimeout", err)
	}

	client.Timeout = 10 * time.Second
	type outcome struct {
		res Result
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		res, err := client.Infer(make([]float64, 4))
		second <- outcome{res, err}
	}()
	// Wait until request 2 holds slot 0 in its second generation.
	for deadline := time.Now().Add(5 * time.Second); ; {
		client.mu.Lock()
		reused := len(client.slots) == 1 && client.slots[0].ch != nil && client.slots[0].gen == 2
		client.mu.Unlock()
		if reused {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request 2 did not take the timed-out call's slot")
		}
		time.Sleep(time.Millisecond)
	}
	peer.answer <- 1 // request 1's late answer, action 1, to an occupied slot
	peer.answer <- 2
	o := <-second
	if o.err != nil || o.res.Action != 2 {
		t.Fatalf("request 2 = %+v, %v; want its own answer (action 2), not request 1's", o.res, o.err)
	}
	if n := client.pending(); n != 0 {
		t.Fatalf("%d calls still registered", n)
	}
}

// sweepers counts the goroutines running a Client's sweep loop, and how
// many of them are parked on their wake channel.
func sweepers() (n, parked int) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("serve.(*Client).sweep(")) {
			n++
			if bytes.Contains(g, []byte("[chan receive")) {
				parked++
			}
		}
	}
	return n, parked
}

// TestClientSweepExitsAfterClose: the sweep goroutine starts with the
// client's first call and exits once the client is closed, whether it was
// parked (no call registered, or only calls without a deadline) or ticking
// (a call with a deadline outstanding).
func TestClientSweepExitsAfterClose(t *testing.T) {
	waitSweepers := func(want, wantParked int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; {
			n, parked := sweepers()
			if n == want && parked == wantParked {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d sweep goroutines (%d parked) after 5s, want %d (%d parked)", n, parked, want, wantParked)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitSweepers(0, 0) // those of earlier tests' closed clients are gone
	_, addr := newTestServer(t, constPolicy{0.5}, Options{Shards: 1}, nil)

	t.Run("parked", func(t *testing.T) {
		client, err := Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Infer(make([]float64, 8)); err != nil {
			t.Fatal(err)
		}
		waitSweepers(1, 1)
		client.Close()
		waitSweepers(0, 0)
	})

	// A call outstanding to a peer that never answers: with a deadline the
	// sweeper ticks, without one (Timeout 0) it stays parked.
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		parked  int
	}{{"ticking", time.Minute, 0}, {"untimed", 0, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			peer := newScriptedPeer(t)
			client, err := Dial("tcp", peer.addr)
			if err != nil {
				t.Fatal(err)
			}
			client.Timeout = tc.timeout
			errc := make(chan error, 1)
			go func() {
				_, err := client.Infer(make([]float64, 4))
				errc <- err
			}()
			for client.pending() == 0 {
				time.Sleep(time.Millisecond)
			}
			waitSweepers(1, tc.parked)
			client.Close()
			if err := <-errc; !errors.Is(err, ErrClientClosed) {
				t.Errorf("outstanding call after Close: err = %v, want ErrClientClosed", err)
			}
			waitSweepers(0, 0)
		})
	}
}

// TestClientLoweredTimeoutWakesSweeper: a call whose sweep tick is shorter
// than the sweeper's current wait wakes the sweeper, so a Timeout lowered
// between calls holds at once. Here the sweeper has just begun a 50 ms wait
// for a call with a one-minute Timeout when a 10 ms call arrives; that call
// must time out near 10 ms, not when the 50 ms wait ends.
func TestClientLoweredTimeoutWakesSweeper(t *testing.T) {
	peer := newScriptedPeer(t) // answers nothing unless told
	client, err := Dial("tcp", peer.addr)
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = time.Minute
	first := make(chan error, 1)
	go func() {
		_, err := client.Infer(make([]float64, 4))
		first <- err
	}()
	for {
		client.mu.Lock()
		nap := client.nap
		client.mu.Unlock()
		if nap == sweepTick(time.Minute) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	const timeout = 10 * time.Millisecond
	client.Timeout = timeout
	t0 := time.Now()
	_, err = client.Infer(make([]float64, 4))
	d := time.Since(t0)
	if !errors.Is(err, ErrInferTimeout) {
		t.Errorf("unanswered call: err = %v, want ErrInferTimeout", err)
	}
	if bound := timeout + sweepTick(timeout) + 20*time.Millisecond; d > bound {
		t.Errorf("a %v call returned after %v, want ≤ %v: the sweeper finished its 50 ms wait first", timeout, d, bound)
	}
	client.Close()
	if err := <-first; !errors.Is(err, ErrClientClosed) {
		t.Errorf("outstanding call after Close: err = %v, want ErrClientClosed", err)
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

// schedAllowance is how late a test lets a goroutine run after the wake-up
// its deadline is due, on a loaded machine or under the race detector.
const schedAllowance = 100 * time.Millisecond

// TestClientTimeoutWhenPeerStopsReading: Timeout bounds every call even
// when the peer accepts and never reads. Once the socket buffers fill, a
// write blocks; its write deadline fails it, which closes the connection
// and fails every queued call, so no caller stays blocked past Timeout plus
// one sweep tick (and the scheduling allowance).
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
	if bound := timeout + sweepTick(timeout) + schedAllowance; worst > bound {
		t.Errorf("a call took %v, want ≤ Timeout + tick + allowance = %v", worst, bound)
	}
}

// holdFirstWrite delays the first write on a connection by hold, then lets
// it through; started is closed once that write has begun.
type holdFirstWrite struct {
	net.Conn
	hold    time.Duration
	writes  atomic.Int64
	started chan struct{}
}

func (c *holdFirstWrite) Write(p []byte) (int, error) {
	if c.writes.Add(1) == 1 {
		close(c.started)
		time.Sleep(c.hold)
	}
	return c.Conn.Write(p)
}

// TestClientWriterBoundedByEntryDeadline: every call returns
// ErrInferTimeout within Timeout of entering Infer, plus one sweep tick and
// a scheduling allowance, when the peer stops reading, the writer among
// them. The writer's first write is slow (hold) and, while it is in
// progress, two callers queue behind it, one with a frame far larger than
// the socket buffers. The writer's follow-up write carrying their frames
// then blocks. The writer cuts it at its own entry deadline and hands the
// rest of the queue on; the next write fails at the large frame's
// deadline, and the connection's calls fail with it as timeouts. A
// deadline taken at the write instead would keep the writer for
// hold + Timeout.
func TestClientWriterBoundedByEntryDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_ = conn.(*net.TCPConn).SetReadBuffer(16 << 10) // keep the receive window small
		accepted <- conn                                // held open, never read
	}()
	client, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer := <-accepted
	defer peer.Close()
	_ = client.conn.(*net.TCPConn).SetWriteBuffer(16 << 10)
	const (
		timeout = 300 * time.Millisecond
		hold    = 200 * time.Millisecond
	)
	hc := &holdFirstWrite{Conn: client.conn, hold: hold, started: make(chan struct{})}
	client.conn = hc
	client.Timeout = timeout
	bound := timeout + sweepTick(timeout) + schedAllowance

	type outcome struct {
		who string
		err error
		d   time.Duration
	}
	out := make(chan outcome, 3)
	call := func(who string, state []float64) {
		t0 := time.Now()
		_, err := client.Infer(state)
		out <- outcome{who, err, time.Since(t0)}
	}
	go call("writer", make([]float64, 4))
	<-hc.started
	go call("large frame", make([]float64, 128<<10)) // 1 MiB: outgrows the socket buffers
	for {                                            // queue the third caller behind the large frame
		client.wmu.Lock()
		n := len(client.wbuf)
		client.wmu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	go call("small frame", make([]float64, 4))
	for i := 0; i < 3; i++ {
		o := <-out
		t.Logf("%s: %v after %v", o.who, o.err, o.d)
		if !errors.Is(o.err, ErrInferTimeout) {
			t.Errorf("%s: err = %v, want ErrInferTimeout", o.who, o.err)
		}
		if o.d > bound {
			t.Errorf("%s returned after %v, want ≤ Timeout + tick + allowance = %v", o.who, o.d, bound)
		}
	}
}

// pacedConn makes every write take at least pace and, once the bytes are
// sent, waits (up to 20 ms) until another frame is queued on client, so
// that the writer's queue does not empty while callers keep calling. It
// records the longest stretch of time over which one goroutine made
// consecutive writes.
type pacedConn struct {
	net.Conn
	pace   time.Duration
	client *Client

	mu       sync.Mutex
	writer   string    // the goroutine that made the last write
	since    time.Time // start of its current stretch of writes
	longest  time.Duration
	stackBuf [64]byte
}

func (c *pacedConn) Write(p []byte) (int, error) {
	time.Sleep(c.pace)
	c.mu.Lock()
	g := c.stackBuf[:runtime.Stack(c.stackBuf[:], false)]
	g = g[:bytes.IndexByte(g, '[')] // "goroutine N "
	now := time.Now()
	if string(g) != c.writer {
		c.writer, c.since = string(g), now
	}
	c.longest = max(c.longest, now.Sub(c.since))
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	for deadline := time.Now().Add(20 * time.Millisecond); err == nil && time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		c.client.wmu.Lock()
		queued := len(c.client.wbuf)
		c.client.wmu.Unlock()
		if queued > 0 {
			break
		}
	}
	return n, err
}

// TestClientLongWriterLoopFailsNothing: against a healthy server, a writer
// can keep writing frames of other callers for longer than its own
// Timeout, as long as the queue never empties. That must fail nothing: a
// write is held only to the deadlines of the frames it carries, and once
// the writer's own deadline passes it hands the queue on instead of
// failing a write on that deadline. Every call is answered and the client
// stays usable.
func TestClientLongWriterLoopFailsNothing(t *testing.T) {
	_, addr := newTestServer(t, constPolicy{0.5}, Options{Shards: 1}, nil)
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	pc := &pacedConn{Conn: client.conn, pace: 2 * time.Millisecond, client: client}
	client.conn = pc
	const timeout = 100 * time.Millisecond
	client.Timeout = timeout

	// Eight closed-loop callers: while one write is under way, the callers
	// the previous write's answers released queue up again.
	const callers = 8
	stop := time.Now().Add(10 * timeout)
	errs := make(chan error, callers)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			state := make([]float64, 8)
			for time.Now().Before(stop) {
				if _, err := client.InferFlow(uint64(g), state); err != nil {
					errs <- err
					return
				}
				calls.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("call failed against a healthy server: %v", err)
	}
	pc.mu.Lock()
	longest := pc.longest
	pc.mu.Unlock()
	t.Logf("%d calls; longest run of writes by one goroutine: %v", calls.Load(), longest)
	if !t.Failed() && longest <= timeout {
		t.Errorf("no goroutine wrote for longer than Timeout (%v, longest %v): the test did not exercise a long writer loop", timeout, longest)
	}
	if res, err := client.Infer(make([]float64, 8)); err != nil || res.Action != 0.5 {
		t.Errorf("call after the run: %+v, %v; want the client still usable", res, err)
	}
}
