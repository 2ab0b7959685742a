// Package serve is the production serving layer between a trained Astraea
// policy and sender traffic: a network-facing inference server that fans
// many client connections into the shared batching core.Service, with
// per-request deadlines, admission control with explicit shedding, a
// deterministic in-band fallback action, hot policy reload, and graceful
// drain. It is the deployment rendering of the shared inference service of
// §4 — the architectural property Fig. 16b measures — hardened the way
// deployment-oriented RL-CC systems require: a sender always receives a
// safe answer within a bounded time, whatever the model is doing.
//
// The package owns the inference wire format (this file) and its one
// client, Client, on every transport the server listens on.
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The wire format, little-endian throughout:
//
//	request:  [reqID uint64][n uint32][n × float64 state]
//	          + optional trailer [flowID uint64]
//	response: [reqID uint64][action float64]
//	          + trailer [flags uint32][version uint32]
//
// Stream transports (tcp, unix) carry each payload in a length-prefixed
// frame, [len uint32][payload]; datagram transports (udp, unixgram) carry
// one bare payload per datagram.
//
// The response trailer is how the fallback answer travels in-band: a sender
// learns whether the action came from the live policy or the fallback law,
// and which policy version answered.
//
// The request trailer carries the flow identity for sharded admission: all
// requests tagged with one flow ID hash to one shard and are answered in
// order, whichever connection they arrive on. An untagged request inherits
// a per-connection flow identity (per sender address on a datagram
// socket), so plain senders (one flow per socket) keep strict ordering too.

// Response flag bits.
const (
	// FlagFallback marks an action computed by the deterministic fallback
	// law rather than the served policy.
	FlagFallback uint32 = 1 << iota
	// FlagShed marks a request rejected at admission (queue full).
	FlagShed
	// FlagDeadline marks a request whose deadline expired before the
	// policy answered.
	FlagDeadline
)

// Result is one served answer as seen by a serve.Client.
type Result struct {
	Action  float64
	Flags   uint32
	Version uint32 // policy version that stamped the response
}

// Fallback reports whether the action came from the fallback law.
func (r Result) Fallback() bool { return r.Flags&FlagFallback != 0 }

// Shed reports whether the request was rejected at admission.
func (r Result) Shed() bool { return r.Flags&FlagShed != 0 }

// DeadlineMissed reports whether the request ran out of budget before the
// policy answered.
func (r Result) DeadlineMissed() bool { return r.Flags&FlagDeadline != 0 }

// maxStateDim bounds the accepted request size: a request declaring a huge
// n must not cause a huge allocation.
const maxStateDim = 4096

// requestSize returns the encoded size of a request carrying dim features,
// without the flow trailer.
func requestSize(dim int) int { return 12 + 8*dim }

// baseResponseSize is the response up to its trailer: reqID and action.
const baseResponseSize = 16

// servedResponseSize is the response payload size, trailer included.
const servedResponseSize = baseResponseSize + 8

// flowTrailerSize is the optional request trailer carrying the flow ID.
const flowTrailerSize = 8

// maxFramePayload bounds what either side will read in one frame or
// datagram: the largest request admitted plus the flow trailer (responses
// are far smaller).
const maxFramePayload = 12 + 8*maxStateDim + flowTrailerSize

// decodeRequestInto parses a request payload. The decoded state appends
// into dst (typically a recycled slice trimmed to length 0), so a
// steady-state reader allocates nothing once the buffer has grown to the
// request width. Bytes past the request are left to requestFlow.
func decodeRequestInto(buf []byte, dst []float64) (reqID uint64, state []float64, err error) {
	if len(buf) < 12 {
		return 0, nil, fmt.Errorf("serve: request too short (%d bytes)", len(buf))
	}
	reqID = binary.LittleEndian.Uint64(buf[0:8])
	n := binary.LittleEndian.Uint32(buf[8:12])
	if n > maxStateDim {
		return 0, nil, fmt.Errorf("serve: state dim %d exceeds limit", n)
	}
	if len(buf) < requestSize(int(n)) {
		return 0, nil, fmt.Errorf("serve: truncated request: %d bytes for dim %d", len(buf), n)
	}
	state = dst
	for i := 0; i < int(n); i++ {
		state = append(state, math.Float64frombits(binary.LittleEndian.Uint64(buf[12+8*i:])))
	}
	return reqID, state, nil
}

// appendServedResponse appends a response payload, trailer included, to
// dst — the allocation-free form for reusable write arenas.
func appendServedResponse(dst []byte, reqID uint64, action float64, flags, version uint32) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(action))
	dst = binary.LittleEndian.AppendUint32(dst, flags)
	return binary.LittleEndian.AppendUint32(dst, version)
}

// appendServedFrame appends one framed response to dst: length prefix,
// payload — a single append chain into a per-connection arena.
func appendServedFrame(dst []byte, reqID uint64, action float64, flags, version uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, servedResponseSize)
	return appendServedResponse(dst, reqID, action, flags, version)
}

// requestFlow extracts the flow-ID trailer from a request payload that
// decoded to dim state features. ok is false when the request carries no
// trailer.
func requestFlow(payload []byte, dim int) (flow uint64, ok bool) {
	base := requestSize(dim)
	if len(payload) < base+flowTrailerSize {
		return 0, false
	}
	return binary.LittleEndian.Uint64(payload[base:]), true
}

// appendFlowRequest appends a framed request to dst: length prefix,
// request, and the flow trailer when tagged. A datagram sender sends the
// result without its 4-byte prefix.
func appendFlowRequest(dst []byte, reqID uint64, state []float64, flow uint64, tagged bool) []byte {
	n := requestSize(len(state))
	if tagged {
		n += flowTrailerSize
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(state)))
	for _, v := range state {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	if tagged {
		dst = binary.LittleEndian.AppendUint64(dst, flow)
	}
	return dst
}

// decodeServedResponse parses a response payload. A payload cut after the
// action decodes with zero flags and version 0.
func decodeServedResponse(buf []byte) (reqID uint64, res Result, err error) {
	if len(buf) < baseResponseSize {
		return 0, Result{}, fmt.Errorf("serve: response too short (%d bytes)", len(buf))
	}
	reqID = binary.LittleEndian.Uint64(buf[0:8])
	res = Result{Action: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:16]))}
	if len(buf) >= servedResponseSize {
		res.Flags = binary.LittleEndian.Uint32(buf[baseResponseSize:])
		res.Version = binary.LittleEndian.Uint32(buf[baseResponseSize+4:])
	}
	return reqID, res, nil
}

// appendFrame appends the length prefix and payload to dst, returning the
// extended slice: one buffer, one Write, so concurrent writers interleave
// whole frames, never bytes.
func appendFrame(dst, payload []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// writeFrame writes one framed payload.
func writeFrame(w io.Writer, payload []byte) error {
	_, err := w.Write(appendFrame(make([]byte, 0, 4+len(payload)), payload))
	return err
}

// readFrame reads one frame payload. A frame longer than maxFramePayload is
// an error (the stream is still positioned at a frame boundary afterwards
// only if the caller discards the oversized body; see discardFrame).
func readFrame(r *bufio.Reader) ([]byte, error) {
	var scratch []byte
	return readFrameInto(r, &scratch)
}

// readFrameInto is readFrame with a caller-owned reusable buffer: the
// payload is read into *buf (grown as needed and written back), so a
// steady-state connection loop performs zero allocations per frame. The
// returned slice aliases *buf and is valid until the next call.
func readFrameInto(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	// The header is read through *buf too: a stack array passed to
	// io.ReadFull escapes and costs an allocation per frame.
	if cap(*buf) < 4 {
		*buf = make([]byte, 4, 512)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFramePayload {
		return nil, errFrameTooLarge(n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

type errFrameTooLarge uint32

func (e errFrameTooLarge) Error() string {
	return fmt.Sprintf("serve: frame of %d bytes exceeds limit %d", uint32(e), maxFramePayload)
}

// discardFrame skips n payload bytes so the stream stays frame-aligned
// after an oversized frame was announced.
func discardFrame(r *bufio.Reader, n uint32) error {
	_, err := io.CopyN(io.Discard, r, int64(n))
	return err
}
