package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the sender side of the out-of-process transport of
// the inference service (§4): senders talk to a shared service over a UNIX
// datagram or UDP socket. The wire format is fixed-size little-endian
// float64s:
//
//	request:  [reqID uint64][n uint32][n × float64 state]
//	response: [reqID uint64][action float64]
//
// The in-process Service does the batching; the codec only moves bytes,
// exactly the split the paper's C++ implementation uses. The server side is
// internal/serve's Server (`astraea serve -listen udp:…` or `unixgram:…`), which
// answers these datagrams with admission, deadlines and fallback. It reuses
// the codec verbatim, also inside length-prefixed frames on its stream
// transports (a response there may carry a trailer after the 16 codec
// bytes; DecodeResponse ignores trailing bytes, so the formats stay
// interoperable).

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

// ServiceClient issues inference requests to a datagram inference server
// (internal/serve's Server on a udp or unixgram endpoint).
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
