package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the out-of-process transport of the inference
// service (§4): senders talk to a shared service over a UNIX datagram or
// UDP socket. The wire format is fixed-size little-endian float64s:
//
//	request:  [reqID uint64][n uint32][n × float64 state]
//	response: [reqID uint64][action float64]
//
// The in-process Service does the batching; this layer only moves bytes,
// exactly the split the paper's C++ implementation uses. The codec is
// exported because internal/serve reuses it verbatim inside length-prefixed
// frames on its stream transports (a response there may carry a trailer
// after the 16 codec bytes; DecodeResponse ignores trailing bytes, so the
// formats stay interoperable).

// MaxStateDim bounds the accepted request size (defensive: a datagram
// declaring a huge n must not cause a huge allocation).
const MaxStateDim = 4096

// RequestSize returns the encoded size of a request carrying dim features.
func RequestSize(dim int) int { return 12 + 8*dim }

// EncodeRequest serializes an inference request.
func EncodeRequest(reqID uint64, state []float64) []byte {
	return AppendRequest(make([]byte, 0, RequestSize(len(state))), reqID, state)
}

// AppendRequest appends the encoded request to dst and returns the extended
// slice — the allocation-free form of EncodeRequest for reusable buffers.
func AppendRequest(dst []byte, reqID uint64, state []float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(state)))
	for _, v := range state {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeRequest parses a request datagram or frame payload.
func DecodeRequest(buf []byte) (reqID uint64, state []float64, err error) {
	return DecodeRequestInto(buf, nil)
}

// DecodeRequestInto is DecodeRequest with caller-owned state storage: the
// decoded state appends into dst (typically a recycled slice trimmed to
// length 0), so a steady-state reader allocates nothing once the buffer has
// grown to the request width. Bytes past the encoded request are ignored,
// which is how the serve-layer flow-ID trailer stays transparent here.
func DecodeRequestInto(buf []byte, dst []float64) (reqID uint64, state []float64, err error) {
	if len(buf) < 12 {
		return 0, nil, fmt.Errorf("core: request too short (%d bytes)", len(buf))
	}
	reqID = binary.LittleEndian.Uint64(buf[0:8])
	n := binary.LittleEndian.Uint32(buf[8:12])
	if n > MaxStateDim {
		return 0, nil, fmt.Errorf("core: state dim %d exceeds limit", n)
	}
	if len(buf) < 12+int(n)*8 {
		return 0, nil, fmt.Errorf("core: truncated request: %d bytes for dim %d", len(buf), n)
	}
	state = dst
	for i := 0; i < int(n); i++ {
		state = append(state, math.Float64frombits(binary.LittleEndian.Uint64(buf[12+8*i:])))
	}
	return reqID, state, nil
}

// ResponseSize is the encoded size of a response.
const ResponseSize = 16

// EncodeResponse serializes an inference response.
func EncodeResponse(reqID uint64, action float64) []byte {
	return AppendResponse(make([]byte, 0, ResponseSize), reqID, action)
}

// AppendResponse appends the encoded response to dst and returns the
// extended slice.
func AppendResponse(dst []byte, reqID uint64, action float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(action))
}

// DecodeResponse parses a response. Bytes past the first 16 are ignored, so
// the serve-layer trailer (flags, policy version) is transparent to clients
// that only understand the base codec.
func DecodeResponse(buf []byte) (reqID uint64, action float64, err error) {
	if len(buf) < ResponseSize {
		return 0, 0, fmt.Errorf("core: response too short (%d bytes)", len(buf))
	}
	return binary.LittleEndian.Uint64(buf[0:8]),
		math.Float64frombits(binary.LittleEndian.Uint64(buf[8:16])), nil
}

// ServiceServer exposes a Service over a packet connection (UDP or
// unixgram). Datagrams fan into a bounded worker pool: a reader goroutine
// decodes and enqueues, and a fixed number of workers call Service.Infer
// (blocking until the evaluator answers) and send the reply. When the queue is
// full the datagram is dropped and counted — never an unbounded goroutine
// per request, so a flood degrades to drops (datagram semantics) instead of
// memory exhaustion.
type ServiceServer struct {
	Service *Service
	conn    net.PacketConn

	queue chan dgramReq
	drops atomic.Uint64

	wg     sync.WaitGroup
	closed chan struct{}
}

type dgramReq struct {
	reqID uint64
	state []float64
	from  net.Addr
}

// ListenAndServe starts serving on network/address (e.g. "udp",
// "127.0.0.1:0" or "unixgram", "/tmp/astraea.sock") until Close, with
// default worker-pool sizing.
func ListenAndServe(svc *Service, network, address string) (*ServiceServer, error) {
	return ListenAndServeWith(svc, network, address, 0, 0)
}

// ListenAndServeWith is ListenAndServe with explicit pool sizing: workers
// concurrent in-flight requests and queueDepth parked datagrams (both
// default when <= 0: 8×GOMAXPROCS workers, 4× that queue).
func ListenAndServeWith(svc *Service, network, address string, workers, queueDepth int) (*ServiceServer, error) {
	if workers <= 0 {
		workers = 8 * runtime.GOMAXPROCS(0)
	}
	if queueDepth <= 0 {
		queueDepth = 4 * workers
	}
	conn, err := net.ListenPacket(network, address)
	if err != nil {
		return nil, fmt.Errorf("core: listen %s %s: %w", network, address, err)
	}
	s := &ServiceServer{
		Service: svc,
		conn:    conn,
		queue:   make(chan dgramReq, queueDepth),
		closed:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.loop()
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *ServiceServer) Addr() net.Addr { return s.conn.LocalAddr() }

// Dropped returns how many datagrams were shed because the worker queue was
// full.
func (s *ServiceServer) Dropped() uint64 { return s.drops.Load() }

// loop is the single reader: it owns the receive buffer and the queue's
// send side (it closes the queue on exit, releasing the workers).
func (s *ServiceServer) loop() {
	defer s.wg.Done()
	defer close(s.queue)
	buf := make([]byte, RequestSize(MaxStateDim))
	for {
		n, from, err := s.conn.ReadFrom(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			continue // transient read errors: drop the datagram, keep serving
		}
		reqID, state, err := DecodeRequest(buf[:n])
		if err != nil {
			continue // malformed datagram: drop (datagram semantics)
		}
		select {
		case s.queue <- dgramReq{reqID: reqID, state: state, from: from}:
		default:
			s.drops.Add(1) // pool saturated: shed, don't spawn
		}
	}
}

func (s *ServiceServer) worker() {
	defer s.wg.Done()
	for r := range s.queue {
		action := s.Service.Infer(r.state)
		// Best-effort reply: a lost datagram means the sender times out
		// and reuses its previous action, like any datagram protocol.
		_, _ = s.conn.WriteTo(EncodeResponse(r.reqID, action), r.from)
	}
}

// Close stops the server and flushes the underlying service. Queued
// requests still in the pool are answered best-effort (their replies fail
// once the socket is gone, which is indistinguishable from datagram loss).
func (s *ServiceServer) Close() error {
	close(s.closed)
	err := s.conn.Close()
	s.wg.Wait()
	s.Service.Close()
	return err
}

// DefaultInferTimeout bounds ServiceClient.Infer when the caller does not
// choose a timeout: datagrams are lossy, and an unanswered request must
// surface as an error, not a goroutine parked forever.
const DefaultInferTimeout = 5 * time.Second

// ErrInferTimeout is returned by ServiceClient.Infer when no response
// arrives within the client's Timeout (e.g. the request or reply datagram
// was lost, or the server is gone).
var ErrInferTimeout = errors.New("core: inference request timed out")

// ErrClientClosed is returned by ServiceClient.Infer when the connection
// closes (locally or by the peer) while the call is outstanding.
var ErrClientClosed = errors.New("core: connection closed with inference call outstanding")

type inferResult struct {
	action float64
	err    error
}

// ServiceClient issues inference requests to a remote ServiceServer.
type ServiceClient struct {
	conn      net.Conn
	localPath string // unixgram client socket file, removed on Close

	// Timeout bounds each Infer call (default DefaultInferTimeout, set by
	// DialService; 0 waits forever). Adjust before issuing calls.
	Timeout time.Duration

	mu    sync.Mutex
	next  uint64
	calls map[uint64]chan inferResult

	readOnce sync.Once
}

// clientSeq names unixgram client sockets uniquely within the process.
var clientSeq atomic.Uint64

// DialService connects to a server at network/address. For "unixgram" the
// client binds its own socket (next to the server's path) so the server
// has a return address; the socket file is removed on Close.
func DialService(network, address string) (*ServiceClient, error) {
	if network == "unixgram" {
		local := fmt.Sprintf("%s.client-%d-%d", address, os.Getpid(), clientSeq.Add(1))
		laddr := &net.UnixAddr{Name: local, Net: "unixgram"}
		raddr := &net.UnixAddr{Name: address, Net: "unixgram"}
		conn, err := net.DialUnix("unixgram", laddr, raddr)
		if err != nil {
			return nil, fmt.Errorf("core: dial unixgram %s: %w", address, err)
		}
		return &ServiceClient{conn: conn, localPath: local, Timeout: DefaultInferTimeout,
			calls: make(map[uint64]chan inferResult)}, nil
	}
	conn, err := net.Dial(network, address)
	if err != nil {
		return nil, fmt.Errorf("core: dial %s %s: %w", network, address, err)
	}
	return &ServiceClient{conn: conn, Timeout: DefaultInferTimeout,
		calls: make(map[uint64]chan inferResult)}, nil
}

func (c *ServiceClient) readLoop() {
	buf := make([]byte, 64)
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			// Connection closed: fail all waiters with a real error so no
			// caller mistakes a dead transport for action 0.
			c.mu.Lock()
			for id, ch := range c.calls {
				ch <- inferResult{err: ErrClientClosed}
				delete(c.calls, id)
			}
			c.mu.Unlock()
			return
		}
		reqID, action, err := DecodeResponse(buf[:n])
		if err != nil {
			continue
		}
		c.mu.Lock()
		if ch, ok := c.calls[reqID]; ok {
			ch <- inferResult{action: action}
			delete(c.calls, reqID)
		}
		c.mu.Unlock()
	}
}

// Infer sends one request and waits for its response, at most c.Timeout.
func (c *ServiceClient) Infer(state []float64) (float64, error) {
	c.readOnce.Do(func() { go c.readLoop() })
	ch := make(chan inferResult, 1)
	c.mu.Lock()
	c.next++
	id := c.next
	c.calls[id] = ch
	c.mu.Unlock()

	if _, err := c.conn.Write(EncodeRequest(id, state)); err != nil {
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		return 0, fmt.Errorf("core: send inference request: %w", err)
	}

	var timeout <-chan time.Time
	if c.Timeout > 0 {
		t := time.NewTimer(c.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case r := <-ch:
		return r.action, r.err
	case <-timeout:
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		// The response may have raced the timer: the channel is buffered,
		// so a delivered result is still there.
		select {
		case r := <-ch:
			return r.action, r.err
		default:
		}
		return 0, fmt.Errorf("core: request %d after %v: %w", id, c.Timeout, ErrInferTimeout)
	}
}

// Close tears down the client connection; outstanding Infer calls return
// ErrClientClosed.
func (c *ServiceClient) Close() error {
	err := c.conn.Close()
	if c.localPath != "" {
		os.Remove(c.localPath)
	}
	return err
}
