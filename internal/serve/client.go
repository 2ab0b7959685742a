package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// DefaultInferTimeout bounds each Infer when the caller does not choose a
// timeout: datagrams are lossy and servers die, and an unanswered request
// must surface as an error, not a goroutine parked forever.
const DefaultInferTimeout = 5 * time.Second

// ErrInferTimeout is returned by Client.Infer when no response arrives
// within the client's Timeout (the request or reply datagram was lost, or
// the server is gone).
var ErrInferTimeout = errors.New("serve: inference request timed out")

// ErrClientClosed is returned by Client.Infer when the connection closes
// (locally or by the peer) while the call is outstanding.
var ErrClientClosed = errors.New("serve: connection closed with inference call outstanding")

// Client talks to a serve.Server. It is safe for concurrent use: calls are
// pipelined over one connection and matched to responses by request ID,
// which is how a sender process multiplexes many flows over one socket.
// Requests issued through InferFlow carry the flow ID on the wire, so the
// server keeps each flow's requests ordered on one shard even when the
// flow's traffic spreads over several connections.
//
// A call takes its deadline (entry time + Timeout) before it queues or
// writes anything, registers in a slot of the client's call table and waits
// for exactly one result: its answer, a timeout, or the connection's
// failure. No call owns a timer. One sweep goroutine per client, started
// with the read loop, fails every registered call whose deadline has passed
// with ErrInferTimeout; it ticks at Timeout/16 (clamped to [1 ms, 50 ms]),
// so a call returns within Timeout plus one tick, and it sleeps while no
// registered call has a deadline. A call whose tick is shorter than the
// sweeper's current wait (Timeout was lowered) wakes it, so the bound holds
// from the first call after the change. A request ID is the slot's
// generation and index (gen<<32 | slot), so a late answer to a call that
// timed out is dropped even when its slot is by then serving another call.
//
// On a stream connection, request frames are coalesced: the caller that
// finds no write in progress becomes the writer. It yields the processor so
// that a burst of callers can queue behind it, then writes everything
// queued in one write(2), and repeats until the queue is empty. A caller that
// arrives while a write is in progress appends its frame and goes straight
// to waiting for its answer. A writer whose own deadline passes while the
// queue is still busy hands the queue to a new goroutine, which writes on
// until it is empty, and returns to its own call. Frames are queued in call
// order, so one goroutine's sequential requests stay in order on the wire.
// A lone caller is written at once: the yield returns immediately when
// nothing else is runnable. On a datagram network each request is its own
// datagram.
type Client struct {
	conn      net.Conn
	datagram  bool   // one bare payload per datagram, no frame prefix
	localPath string // unixgram client socket file, removed on Close

	// Timeout bounds each Infer call, from the moment Infer is entered
	// (default DefaultInferTimeout; 0 waits forever). Adjust it between
	// calls, not during one. A call that gets no answer returns
	// ErrInferTimeout within Timeout plus one sweep tick (Timeout/16, at
	// most 50 ms). On a stream it also bounds each write: a write is held
	// to the earliest deadline among the frames it carries, so a peer that
	// stops reading fails the write by then. That closes the connection:
	// every call still registered returns an error wrapping
	// ErrInferTimeout, and later calls return ErrClientClosed.
	Timeout time.Duration

	wmu     sync.Mutex // guards the request queue below
	wbuf    []byte     // queued request frames; a datagram client's one frame
	wspare  []byte     // the buffer the writer is writing; swapped with wbuf
	wdl     time.Time  // earliest deadline among the frames in wbuf; zero: none (or no frames)
	writing bool       // a goroutine is writing the queue; stays set after a failed write

	// Result channels (cap 1), pooled so that a steady-state Infer
	// allocates nothing. A registered call is sent exactly one result,
	// under mu, by whoever frees its slot.
	chPool sync.Pool // of chan clientResult

	mu      sync.Mutex
	slots   []callSlot    // the call table, indexed by the low half of a request ID
	free    []uint32      // indices of the unoccupied slots
	timed   int           // occupied slots whose call has a deadline
	tick    time.Duration // sweep period, from the latest call with a Timeout
	nap     time.Duration // the sweeper's current wait; 0: until woken
	wake    chan struct{} // cap 1: wakes the sweeper early
	dead    error         // sticky: set once the connection has failed
	started bool
}

// callSlot is one entry of the call table. gen counts the slot's uses; it
// is the high half of the request ID its current call went out with.
type callSlot struct {
	ch       chan clientResult // the call's result channel; nil while the slot is free
	gen      uint32
	deadline time.Time // zero: the call waits forever
}

// id is the request ID of the call in slot i.
func (s *callSlot) id(i int) uint64 { return uint64(s.gen)<<32 | uint64(i) }

type clientResult struct {
	res Result
	err error
}

// errWriteTimeout fails the calls on a stream whose write outlived its
// deadline: the stream may be mid-frame, so the connection is closed and
// none of them can be answered.
var errWriteTimeout = fmt.Errorf("serve: request write timed out, connection closed: %w", ErrInferTimeout)

// Dial connects to a serve.Server endpoint: tcp, tcp4, tcp6 or unix (framed
// payloads on a stream), or udp, udp4, udp6 or unixgram (one bare payload
// per datagram). A unixgram client binds its own socket next to the
// server's path, so the server has an address to answer; Close removes it.
// On a datagram network a lost datagram is a failed call, and so is one
// the peer refused (ICMP port unreachable): that call times out or fails,
// and the client stays usable.
func Dial(network, address string) (*Client, error) {
	c := &Client{Timeout: DefaultInferTimeout, wake: make(chan struct{}, 1)}
	var err error
	switch network {
	case "tcp", "tcp4", "tcp6", "unix":
		c.conn, err = net.Dial(network, address)
	case "udp", "udp4", "udp6":
		c.datagram = true
		c.conn, err = net.Dial(network, address)
	case "unixgram":
		c.datagram = true
		c.localPath = fmt.Sprintf("%s.client-%d-%d", address, os.Getpid(), connSeq.Add(1))
		c.conn, err = net.DialUnix(network, &net.UnixAddr{Name: c.localPath, Net: network},
			&net.UnixAddr{Name: address, Net: network})
	default:
		return nil, fmt.Errorf("serve: dial: unsupported network %q", network)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s %s: %w", network, address, err)
	}
	return c, nil
}

// register puts a call waiting on ch in a free slot and returns its
// request ID. Callers hold mu.
func (c *Client) register(ch chan clientResult, deadline time.Time) uint64 {
	var i uint32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		i = uint32(len(c.slots))
		c.slots = append(c.slots, callSlot{})
	}
	s := &c.slots[i]
	s.gen++
	s.ch, s.deadline = ch, deadline
	if !deadline.IsZero() {
		c.timed++
		if c.nap == 0 || c.tick < c.nap { // parked, or waiting longer than this call's tick
			c.wakeSweeper()
		}
	}
	return s.id(int(i))
}

// finish sends the call registered under id its result and frees the slot.
// It does nothing when no call holds id any more: the call was answered,
// timed out or failed, and this result is late. Callers hold mu.
func (c *Client) finish(id uint64, r clientResult) {
	i := uint32(id)
	if int(i) >= len(c.slots) {
		return
	}
	s := &c.slots[i]
	if s.ch == nil || s.gen != uint32(id>>32) {
		return
	}
	s.ch <- r
	if !s.deadline.IsZero() {
		c.timed--
	}
	s.ch, s.deadline = nil, time.Time{}
	c.free = append(c.free, i)
}

// wakeSweeper ends the sweeper's current wait, or its next one.
func (c *Client) wakeSweeper() {
	select {
	case c.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// failAll fails every registered call with err and marks the client dead.
// Callers hold mu.
func (c *Client) failAll(err error) {
	if c.dead == nil {
		c.dead = ErrClientClosed
	}
	for i := range c.slots {
		if s := &c.slots[i]; s.ch != nil {
			c.finish(s.id(i), clientResult{err: err})
		}
	}
	c.wakeSweeper() // to exit
}

func (c *Client) readLoop() {
	var br *bufio.Reader
	var rbuf []byte
	if c.datagram {
		rbuf = make([]byte, servedResponseSize) // the kernel truncates a longer datagram
	} else {
		br = bufio.NewReaderSize(c.conn, 16<<10)
	}
	for {
		var payload []byte
		var err error
		if c.datagram {
			var n int
			n, err = c.conn.Read(rbuf)
			payload = rbuf[:n]
		} else {
			payload, err = readFrameInto(br, &rbuf)
		}
		if err != nil {
			if c.datagram && errors.Is(err, syscall.ECONNREFUSED) {
				// An ICMP port-unreachable for an earlier datagram: that
				// request is lost, the socket is not. Its call times out.
				continue
			}
			c.mu.Lock()
			c.failAll(ErrClientClosed)
			c.mu.Unlock()
			return
		}
		reqID, res, err := decodeServedResponse(payload)
		if err != nil {
			continue // malformed response payload: skip (a stream stays framed)
		}
		c.mu.Lock()
		c.finish(reqID, clientResult{res: res})
		c.mu.Unlock()
	}
}

// sweep fails the registered calls whose deadline has passed, once a tick,
// and parks on wake while no registered call has a deadline. It exits once
// the client is dead.
func (c *Client) sweep() {
	t := time.NewTimer(time.Hour)
	t.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.dead == nil {
		c.nap = 0
		if c.timed > 0 {
			c.nap = c.tick
		}
		nap := c.nap
		c.mu.Unlock()
		if nap == 0 {
			<-c.wake
		} else {
			// A woken wait leaves its timer stopped but maybe fired: the
			// stale tick only makes the next sweep come early.
			t.Reset(nap)
			select {
			case <-t.C:
			case <-c.wake:
				t.Stop()
			}
		}
		c.mu.Lock()
		now := time.Now()
		for i := range c.slots {
			s := &c.slots[i]
			if s.ch != nil && !s.deadline.IsZero() && !now.Before(s.deadline) {
				c.finish(s.id(i), clientResult{err: ErrInferTimeout})
			}
		}
	}
}

// sweepTick is the sweep period for calls bounded by timeout.
func sweepTick(timeout time.Duration) time.Duration {
	return min(max(timeout/16, time.Millisecond), 50*time.Millisecond)
}

// Infer sends one request and waits for its answer, at most c.Timeout. The
// returned Result says whether the action came from the policy or the
// fallback law, and which policy version stamped it.
func (c *Client) Infer(state []float64) (Result, error) {
	return c.infer(state, 0, false)
}

// InferFlow is Infer with an explicit flow identity: the server hashes the
// flow ID to a shard, so all requests tagged with one flow are answered in
// submission order wherever they arrive.
func (c *Client) InferFlow(flow uint64, state []float64) (Result, error) {
	return c.infer(state, flow, true)
}

func (c *Client) infer(state []float64, flow uint64, tagged bool) (Result, error) {
	timeout := c.Timeout
	var deadline time.Time // zero: no deadline
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	ch, _ := c.chPool.Get().(chan clientResult)
	if ch == nil {
		ch = make(chan clientResult, 1)
	}
	c.mu.Lock()
	if c.dead != nil {
		c.mu.Unlock()
		c.chPool.Put(ch)
		return Result{}, c.dead
	}
	if !c.started {
		c.started = true
		go c.readLoop()
		go c.sweep()
	}
	if timeout > 0 {
		c.tick = sweepTick(timeout)
	}
	id := c.register(ch, deadline)
	c.mu.Unlock()

	var err error
	if c.datagram {
		err = c.sendDatagram(id, state, flow, tagged)
	} else {
		err = c.sendFrame(id, deadline, state, flow, tagged)
	}
	if err != nil {
		c.mu.Lock()
		c.finish(id, clientResult{}) // a no-op if a result beat err to the slot
		c.mu.Unlock()
		<-ch // one result, whoever sent it, is buffered by now
		c.chPool.Put(ch)
		return Result{}, err
	}

	r := <-ch
	c.chPool.Put(ch)
	if r.err == ErrInferTimeout { // the sweep's bare error: say which call
		return Result{}, fmt.Errorf("serve: request %d after %v: %w", id, timeout, ErrInferTimeout)
	}
	return r.res, r.err
}

// sendFrame queues one request frame on a stream connection and, if no
// write is in progress, becomes the writer (see Client). It returns a send
// error only when the write that carried this call's own frame failed; a
// later write's failure reaches the call as its result instead.
func (c *Client) sendFrame(id uint64, deadline time.Time, state []float64, flow uint64, tagged bool) error {
	c.wmu.Lock()
	c.wdl = earlier(c.wdl, deadline)
	c.wbuf = appendFlowRequest(c.wbuf, id, state, flow, tagged)
	if c.writing {
		c.wmu.Unlock()
		return nil
	}
	c.writing = true
	c.wmu.Unlock()
	return c.writeQueue(deadline)
}

// writeQueue writes the request queue until it is empty; the caller has set
// writing. Each write is held to the earliest deadline among the frames it
// carries, and a write that outlives it closes the connection: the stream
// may be mid-frame. The first write carries the writer's own frame. Later
// ones carry only frames of other callers, so the writer also cuts each of
// them at own, its entry deadline (zero: none). A cut write's unwritten
// bytes go back to the head of the queue, and a new goroutine writes on
// from there, so the writer's call returns by its deadline without failing
// anyone else's. A write that ran out of time fails every registered call
// with errWriteTimeout; any other failure closes the connection, and the
// read loop fails them with ErrClientClosed.
func (c *Client) writeQueue(own time.Time) error {
	// Yield before each write. Without it the writer keeps its P through
	// the syscall and the callers the read loop just woke never get to
	// queue, so writes coalesce almost nothing; yielding again before a
	// follow-up write gives the callers that queued during the last
	// syscall company too.
	for first := true; ; first = false {
		runtime.Gosched()
		c.wmu.Lock()
		out, wdl := c.wbuf, c.wdl
		if len(out) == 0 {
			c.writing = false
			c.wmu.Unlock()
			return nil
		}
		c.wbuf, c.wspare, c.wdl = c.wspare[:0], out, time.Time{}
		c.wmu.Unlock()
		dl := earlier(wdl, own)
		cut := !dl.Equal(wdl)           // held to own, a deadline none of its frames has
		_ = c.conn.SetWriteDeadline(dl) // on a closed conn the Write below fails too
		n, err := c.conn.Write(out)
		if err == nil {
			continue
		}
		timedOut := errors.Is(err, os.ErrDeadlineExceeded)
		if cut && timedOut {
			// The rest keeps the cut write's deadline, which is no later
			// than any of its frames'.
			c.wmu.Lock()
			rest := append(out[:0], out[n:]...)
			c.wbuf, c.wspare, c.wdl = append(rest, c.wbuf...), c.wbuf[:0], earlier(wdl, c.wdl)
			c.wmu.Unlock()
			go c.writeQueue(time.Time{}) // writing stays set: the queue is its
			return nil
		}
		// A failed write may have left the stream mid-frame: nothing more
		// can be sent on it, so writing stays set and no caller writes
		// again. Closing the connection ends the read loop, which fails
		// every call still registered and every later one.
		if timedOut {
			c.mu.Lock()
			c.failAll(errWriteTimeout)
			c.mu.Unlock()
			err = fmt.Errorf("%w: %w", ErrInferTimeout, err)
		}
		c.conn.Close()
		if !first {
			return nil
		}
		return fmt.Errorf("serve: send request: %w", err)
	}
}

// earlier returns the earlier of two deadlines; the zero Time is none.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// sendDatagram sends one request as one datagram.
func (c *Client) sendDatagram(id uint64, state []float64, flow uint64, tagged bool) error {
	c.wmu.Lock()
	c.wbuf = appendFlowRequest(c.wbuf[:0], id, state, flow, tagged)
	_, err := c.conn.Write(c.wbuf[4:]) // the datagram is the frame
	c.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("serve: send request: %w", err)
	}
	return nil
}

// Close tears down the connection; outstanding Infer calls return
// ErrClientClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	if c.localPath != "" {
		os.Remove(c.localPath)
	}
	return err
}
