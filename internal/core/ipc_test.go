package core

import (
	"errors"
	"math"
	"net"
	"os"
	"testing"
	"time"
)

func TestWireFormatRoundTrip(t *testing.T) {
	state := []float64{0.1, -2.5, math.Pi, 0}
	buf := EncodeRequest(42, state)
	id, got, err := DecodeRequest(buf)
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
	rbuf := EncodeResponse(42, -0.75)
	rid, action, err := DecodeResponse(rbuf)
	if err != nil || rid != 42 || action != -0.75 {
		t.Fatalf("response round trip: %v %v %v", rid, action, err)
	}
	// Trailing bytes after the base response (the serve-layer trailer) must
	// be transparent.
	rid, action, err = DecodeResponse(append(rbuf, 1, 2, 3, 4, 5, 6, 7, 8))
	if err != nil || rid != 42 || action != -0.75 {
		t.Fatalf("response with trailer: %v %v %v", rid, action, err)
	}
}

func TestDecodeRequestRejectsMalformed(t *testing.T) {
	if _, _, err := DecodeRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("short request accepted")
	}
	// Claims a huge dimension.
	buf := EncodeRequest(1, make([]float64, 4))
	buf[8] = 0xFF
	buf[9] = 0xFF
	buf[10] = 0xFF
	buf[11] = 0x7F
	if _, _, err := DecodeRequest(buf); err == nil {
		t.Fatal("oversized dim accepted")
	}
	// Truncated payload.
	buf2 := EncodeRequest(1, make([]float64, 4))[:20]
	if _, _, err := DecodeRequest(buf2); err == nil {
		t.Fatal("truncated request accepted")
	}
	if _, _, err := DecodeResponse([]byte{1}); err == nil {
		t.Fatal("short response accepted")
	}
}

// TestUnixgramClientSocketCleanup: a unixgram client binds its own socket
// file next to the server's path so replies have a return address, and
// removes it on Close. A bound sink socket stands in for the server.
func TestUnixgramClientSocketCleanup(t *testing.T) {
	sock := t.TempDir() + "/astraea.sock"
	sink, err := net.ListenPacket("unixgram", sock)
	if err != nil {
		t.Skipf("unixgram unavailable: %v", err)
	}
	defer sink.Close()

	client, err := DialService("unixgram", sock)
	if err != nil {
		t.Skipf("unixgram dial: %v", err)
	}
	if _, err := os.Stat(client.localPath); err != nil {
		t.Fatalf("client socket file missing while open: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(client.localPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("client socket file not removed on Close: %v", err)
	}
}

// TestClientInferTimeout is the regression test for the lost-datagram hang:
// a server that never answers must produce ErrInferTimeout, not a caller
// parked forever.
func TestClientInferTimeout(t *testing.T) {
	// A bound UDP socket that reads nothing: every request datagram is
	// accepted by the kernel and never answered.
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	client, err := DialService("udp", sink.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 50 * time.Millisecond

	start := time.Now()
	_, err = client.Infer(make([]float64, 4))
	if !errors.Is(err, ErrInferTimeout) {
		t.Fatalf("err = %v, want ErrInferTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestClientCloseFailsOutstanding: closing the connection with a call in
// flight must surface ErrClientClosed — the old behaviour returned (0, nil),
// indistinguishable from a real action.
func TestClientCloseFailsOutstanding(t *testing.T) {
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	client, err := DialService("udp", sink.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = 0 // wait forever: only the close may release the call

	res := make(chan error, 1)
	go func() {
		_, err := client.Infer(make([]float64, 4))
		res <- err
	}()
	// Let the request get written and the reader parked.
	time.Sleep(20 * time.Millisecond)
	client.Close()
	select {
	case err := <-res:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("err = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Infer still blocked after Close")
	}
}
