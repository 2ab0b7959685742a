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
// On a stream connection, request frames are coalesced: the caller that
// finds no write in progress becomes the writer. It yields the processor so
// that a burst of callers can queue behind it, then writes everything
// queued in one write(2), and repeats until the queue is empty. A caller that
// arrives while a write is in progress appends its frame and goes straight
// to waiting for its answer. Frames are queued in call order, so one
// goroutine's sequential requests stay in order on the wire. A lone caller
// is written at once: the yield returns immediately when nothing else is
// runnable. On a datagram network each request is its own datagram.
type Client struct {
	conn      net.Conn
	datagram  bool   // one bare payload per datagram, no frame prefix
	localPath string // unixgram client socket file, removed on Close

	// Timeout bounds each Infer call (default DefaultInferTimeout; 0 waits
	// forever). Adjust before issuing calls. On a stream it also bounds each
	// write: a peer that stops reading fails the write after Timeout, which
	// closes the connection, so the writer returns its send error and every
	// queued call returns ErrClientClosed instead of blocking.
	Timeout time.Duration

	wmu     sync.Mutex // guards the request queue below
	wbuf    []byte     // queued request frames; a datagram client's one frame
	wspare  []byte     // the buffer the writer is writing; swapped with wbuf
	writing bool       // a caller is writing the queue; stays set after a failed write

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

// Dial connects to a serve.Server endpoint: tcp, tcp4, tcp6 or unix (framed
// payloads on a stream), or udp, udp4, udp6 or unixgram (one bare payload
// per datagram). A unixgram client binds its own socket next to the
// server's path, so the server has an address to answer; Close removes it.
// On a datagram network a lost datagram is a failed call, and so is one
// the peer refused (ICMP port unreachable): that call times out or fails,
// and the client stays usable.
func Dial(network, address string) (*Client, error) {
	c := &Client{Timeout: DefaultInferTimeout, calls: make(map[uint64]*clientCall)}
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
			c.dead = ErrClientClosed
			for id, call := range c.calls {
				call.ch <- clientResult{err: ErrClientClosed}
				delete(c.calls, id)
			}
			c.mu.Unlock()
			return
		}
		reqID, res, err := decodeServedResponse(payload)
		if err != nil {
			continue // malformed response payload: skip (a stream stays framed)
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

	var err error
	if c.datagram {
		err = c.sendDatagram(id, state, flow, tagged)
	} else {
		err = c.sendFrame(id, state, flow, tagged)
	}
	if err != nil {
		c.dropCall(id, call)
		return Result{}, err
	}

	r, ok := call.await(c.Timeout)
	if ok {
		c.putCall(call)
	} else if r, ok = c.dropCall(id, call); !ok { // ok: the response raced the timer into the buffer
		return Result{}, fmt.Errorf("serve: request %d after %v: %w", id, c.Timeout, ErrInferTimeout)
	}
	return r.res, r.err
}

// sendFrame queues one request frame on a stream connection and, if no
// write is in progress, becomes the writer (see Client). It returns the
// send error only to the writer whose write failed; the calls queued behind
// it, and any queued before the failure reaches the read loop, are failed
// by the read loop when the connection closes.
func (c *Client) sendFrame(id uint64, state []float64, flow uint64, tagged bool) error {
	c.wmu.Lock()
	c.wbuf = appendFlowRequest(c.wbuf, id, state, flow, tagged)
	if c.writing {
		c.wmu.Unlock()
		return nil
	}
	c.writing = true
	c.wmu.Unlock()
	// Yield before each write. Without it the writer keeps its P through
	// the syscall and the callers the read loop just woke never get to
	// queue, so writes coalesce almost nothing; yielding again before a
	// follow-up write gives the callers that queued during the last
	// syscall company too.
	for {
		runtime.Gosched()
		c.wmu.Lock()
		out := c.wbuf
		if len(out) == 0 {
			c.writing = false
			c.wmu.Unlock()
			return nil
		}
		c.wbuf, c.wspare = c.wspare[:0], out
		c.wmu.Unlock()
		var deadline time.Time // zero: no deadline
		if c.Timeout > 0 {
			deadline = time.Now().Add(c.Timeout)
		}
		_ = c.conn.SetWriteDeadline(deadline) // on a closed conn the Write below fails too
		if _, err := c.conn.Write(out); err != nil {
			// A failed write may have left the stream mid-frame: nothing
			// more can be sent on it, so writing stays set and no caller
			// writes again. Closing the connection ends the read loop,
			// which fails every registered call and every later one.
			c.conn.Close()
			return fmt.Errorf("serve: send request: %w", err)
		}
	}
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
// ErrClientClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	if c.localPath != "" {
		os.Remove(c.localPath)
	}
	return err
}
