package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
)

// Client talks to a serve.Server over a stream transport (tcp or unix)
// with length-prefixed framing. It is safe for concurrent use: calls are
// pipelined over one connection and matched to responses by request ID,
// which is how a sender process multiplexes many flows over one socket.
// Requests issued through InferFlow carry the flow ID on the wire, so the
// server keeps each flow's requests ordered on one shard even when the
// flow's traffic spreads over several connections.
type Client struct {
	conn net.Conn

	// Timeout bounds each Infer call (default core.DefaultInferTimeout;
	// 0 waits forever). Adjust before issuing calls.
	Timeout time.Duration

	wmu  sync.Mutex // serializes request frames
	wbuf []byte     // reusable request frame buffer (guarded by wmu)

	callPool sync.Pool // of *clientCall

	mu      sync.Mutex
	next    uint64
	calls   map[uint64]*clientCall
	dead    error // sticky read-loop exit cause
	started bool
}

type clientResult struct {
	res Result
	err error
}

// clientCall is the per-call state Infer would otherwise allocate: the
// result channel (cap 1) and the timer bounding the wait. Calls are pooled,
// so a steady-state Infer allocates nothing.
type clientCall struct {
	ch    chan clientResult
	timer *time.Timer // nil until a call with a Timeout first uses it
}

// Dial connects to a serve.Server stream endpoint.
func Dial(network, address string) (*Client, error) {
	switch network {
	case "tcp", "tcp4", "tcp6", "unix":
	default:
		return nil, fmt.Errorf("serve: dial: unsupported network %q (stream transports only)", network)
	}
	conn, err := net.Dial(network, address)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s %s: %w", network, address, err)
	}
	return &Client{conn: conn, Timeout: core.DefaultInferTimeout,
		calls: make(map[uint64]*clientCall)}, nil
}

func (c *Client) getCall() *clientCall {
	if v := c.callPool.Get(); v != nil {
		return v.(*clientCall)
	}
	return &clientCall{ch: make(chan clientResult, 1)}
}

// putCall recycles a call. Callers must guarantee its channel is empty and
// unreachable: the entry was deleted from c.calls under mu (the read loop
// only sends while holding mu), and any buffered value was drained. The
// timer may still hold a tick from this use; the next use tells it apart
// from its own by the clock (see await).
func (c *Client) putCall(call *clientCall) {
	if call.timer != nil {
		call.timer.Stop()
	}
	c.callPool.Put(call)
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 16<<10)
	var rbuf []byte
	for {
		payload, err := readFrameInto(br, &rbuf)
		if err != nil {
			c.mu.Lock()
			c.dead = core.ErrClientClosed
			for id, call := range c.calls {
				call.ch <- clientResult{err: core.ErrClientClosed}
				delete(c.calls, id)
			}
			c.mu.Unlock()
			return
		}
		reqID, res, err := decodeServedResponse(payload)
		if err != nil {
			continue // malformed response payload: skip, stream stays framed
		}
		c.mu.Lock()
		if call, ok := c.calls[reqID]; ok {
			call.ch <- clientResult{res: res}
			delete(c.calls, reqID)
		}
		c.mu.Unlock()
	}
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
	call := c.getCall()
	c.mu.Lock()
	if c.dead != nil {
		c.mu.Unlock()
		c.putCall(call)
		return Result{}, c.dead
	}
	if !c.started {
		c.started = true
		go c.readLoop()
	}
	c.next++
	id := c.next
	c.calls[id] = call
	c.mu.Unlock()

	c.wmu.Lock()
	c.wbuf = appendFlowRequest(c.wbuf[:0], id, state, flow, tagged)
	_, err := c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	if err != nil {
		c.dropCall(id, call)
		return Result{}, fmt.Errorf("serve: send request: %w", err)
	}

	r, ok := call.await(c.Timeout)
	if ok {
		c.putCall(call)
	} else if r, ok = c.dropCall(id, call); !ok { // ok: the response raced the timer into the buffer
		return Result{}, fmt.Errorf("serve: request %d after %v: %w", id, c.Timeout, core.ErrInferTimeout)
	}
	return r.res, r.err
}

// await waits for the call's result, at most d (0 waits forever); ok is
// false on timeout. The timer is the call's own, reused across uses.
func (call *clientCall) await(d time.Duration) (r clientResult, ok bool) {
	if d <= 0 {
		return <-call.ch, true
	}
	expires := time.Now().Add(d)
	if call.timer == nil {
		call.timer = time.NewTimer(d)
	} else {
		call.timer.Reset(d)
	}
	for {
		select {
		case r = <-call.ch:
			return r, true
		case <-call.timer.C:
			// A tick before expires was fired by the timer's previous use
			// and never read; this use's own tick is still to come.
			if !time.Now().Before(expires) {
				return clientResult{}, false
			}
		}
	}
}

// dropCall unregisters a pending call and recycles it, returning any result
// that landed before the entry was removed.
func (c *Client) dropCall(id uint64, call *clientCall) (clientResult, bool) {
	c.mu.Lock()
	delete(c.calls, id)
	c.mu.Unlock()
	select {
	case r := <-call.ch:
		c.putCall(call)
		return r, true
	default:
		c.putCall(call)
		return clientResult{}, false
	}
}

// Close tears down the connection; outstanding Infer calls return
// core.ErrClientClosed.
func (c *Client) Close() error {
	return c.conn.Close()
}
