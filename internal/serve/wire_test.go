package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"
)

// TestWireGoldenBytes pins the exact bytes of the wire format, so a change
// to it cannot pass as a refactor: round-trip tests hold for any format
// whose encoder and decoder change together.
func TestWireGoldenBytes(t *testing.T) {
	const (
		reqID = 0x0102030405060708
		flow  = 0x1122334455667788
	)
	state := []float64{0.5, -1.25, 3}
	const (
		head     = "0807060504030201" + "03000000"                              // reqID, n
		body     = "000000000000e03f" + "000000000000f4bf" + "0000000000000840" // 0.5, -1.25, 3
		trailer  = "8877665544332211"                                           // flow ID
		response = "0807060504030201" + "000000000000e8bf" + "03000000" + "07000000"
	)
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"untagged framed", appendFlowRequest(nil, reqID, state, 0, false), "24000000" + head + body},
		{"tagged framed", appendFlowRequest(nil, reqID, state, flow, true), "2c000000" + head + body + trailer},
		{"untagged bare", appendFlowRequest(nil, reqID, state, 0, false)[4:], head + body},
		{"tagged bare", appendFlowRequest(nil, reqID, state, flow, true)[4:], head + body + trailer},
		{"response", appendServedResponse(nil, reqID, -0.75, FlagFallback|FlagShed, 7), response},
		{"response framed", appendServedFrame(nil, reqID, -0.75, FlagFallback|FlagShed, 7), "18000000" + response},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}

	raw, _ := hex.DecodeString(response)
	id, res, err := decodeServedResponse(raw)
	if err != nil || id != reqID || res != (Result{Action: -0.75, Flags: FlagFallback | FlagShed, Version: 7}) {
		t.Fatalf("decode golden response: id %#x, %+v, %v", id, res, err)
	}
}

func TestWireFormatRoundTrip(t *testing.T) {
	state := []float64{0.1, -2.5, math.Pi, 0}
	for _, tagged := range []bool{false, true} {
		payload := appendFlowRequest(nil, 42, state, 77, tagged)[4:]
		id, got, err := decodeRequestInto(payload, nil)
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
		if flow, ok := requestFlow(payload, len(got)); ok != tagged || (tagged && flow != 77) {
			t.Fatalf("tagged %v: flow trailer read as %d, %v", tagged, flow, ok)
		}
	}
	want := Result{Action: -0.75, Flags: FlagDeadline, Version: 3}
	rbuf := appendServedResponse(nil, 42, want.Action, want.Flags, want.Version)
	if rid, res, err := decodeServedResponse(rbuf); err != nil || rid != 42 || res != want {
		t.Fatalf("response round trip: %v %+v %v", rid, res, err)
	}
	// A response cut after the action still decodes, with no flags.
	if rid, res, err := decodeServedResponse(rbuf[:baseResponseSize]); err != nil || rid != 42 ||
		res != (Result{Action: want.Action}) {
		t.Fatalf("response without trailer: %v %+v %v", rid, res, err)
	}
}

func TestDecodeRequestRejectsMalformed(t *testing.T) {
	if _, _, err := decodeRequestInto([]byte{1, 2, 3}, nil); err == nil {
		t.Fatal("short request accepted")
	}
	// Claims a huge dimension.
	buf := appendFlowRequest(nil, 1, make([]float64, 4), 0, false)[4:]
	buf[8] = 0xFF
	buf[9] = 0xFF
	buf[10] = 0xFF
	buf[11] = 0x7F
	if _, _, err := decodeRequestInto(buf, nil); err == nil {
		t.Fatal("oversized dim accepted")
	}
	// Truncated payload.
	buf2 := appendFlowRequest(nil, 1, make([]float64, 4), 0, false)[4:24]
	if _, _, err := decodeRequestInto(buf2, nil); err == nil {
		t.Fatal("truncated request accepted")
	}
	if _, _, err := decodeServedResponse([]byte{1}); err == nil {
		t.Fatal("short response accepted")
	}
}

// FuzzServedRequest drives what a server reads off the wire from any peer:
// a request payload through decodeRequestInto and requestFlow, and a byte
// stream through readFrameInto. Nothing may panic, a decoded state never
// exceeds maxStateDim, the frame buffer never grows past maxFramePayload,
// and whatever decodes re-encodes to the bytes it came from.
func FuzzServedRequest(f *testing.F) {
	state := []float64{0.5, -1.25, 3}
	untagged := appendFlowRequest(nil, 1, state, 0, false)
	tagged := appendFlowRequest(nil, 2, state, 7, true)
	f.Add(untagged[4:], untagged)
	f.Add(tagged[4:], append(append([]byte{}, tagged...), untagged...))
	f.Add(appendServedResponse(nil, 3, 0.25, FlagShed, 1), appendServedFrame(nil, 3, 0.25, FlagShed, 1))
	f.Add([]byte{1, 2, 3}, binary.LittleEndian.AppendUint32(nil, maxFramePayload+1))
	f.Fuzz(func(t *testing.T, payload, stream []byte) {
		checkRequest(t, payload)
		if id, res, err := decodeServedResponse(payload); err == nil && len(payload) >= servedResponseSize {
			if re := appendServedResponse(nil, id, res.Action, res.Flags, res.Version); !bytes.Equal(re, payload[:len(re)]) {
				t.Fatalf("response re-encodes to %x, decoded from %x", re, payload)
			}
		}

		br := bufio.NewReader(bytes.NewReader(stream))
		var buf []byte
		for {
			frame, err := readFrameInto(br, &buf)
			if cap(buf) > maxFramePayload {
				t.Fatalf("frame buffer grew to %d bytes, limit %d", cap(buf), maxFramePayload)
			}
			var tooBig errFrameTooLarge
			if errors.As(err, &tooBig) {
				if discardFrame(br, uint32(tooBig)) != nil {
					return
				}
				continue
			}
			if err != nil {
				return
			}
			checkRequest(t, frame)
		}
	})
}

// checkRequest decodes payload as a request and, if it decodes, checks its
// bounds and that it re-encodes to the payload's own bytes.
func checkRequest(t *testing.T, payload []byte) {
	id, state, err := decodeRequestInto(payload, nil)
	if err != nil {
		return
	}
	if len(state) > maxStateDim {
		t.Fatalf("decoded %d state features, limit %d", len(state), maxStateDim)
	}
	flow, tagged := requestFlow(payload, len(state))
	re := appendFlowRequest(nil, id, state, flow, tagged)[4:]
	if !bytes.Equal(re, payload[:len(re)]) {
		t.Fatalf("request re-encodes to %x, decoded from %x", re, payload)
	}
}
