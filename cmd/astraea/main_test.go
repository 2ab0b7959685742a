package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flowtrace"
)

// TestRunRejectsFewerThanOneFlow: a scenario needs a flow, and -series
// indexes the first one. -flows below 1 is a usage error before anything
// runs, not an index-out-of-range panic after.
func TestRunRejectsFewerThanOneFlow(t *testing.T) {
	for _, flows := range []string{"0", "-3"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-flows", flows, "-series", "-dur", "1"}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("-flows %s: exit %d, want 2", flows, code)
		}
		if !strings.Contains(stderr.String(), "-flows must be at least 1") {
			t.Errorf("-flows %s: stderr %q does not name the bad flag", flows, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-flows %s: printed results %q", flows, stdout.String())
		}
	}
}

// TestRunWritesTrace: a short traced run prints its per-flow lines and
// writes a CSV with both window and loss rows, without a truncation
// warning.
func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scheme", "cubic", "-flows", "2", "-dur", "2", "-buf", "0.2", "-trace", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "flow 1: avg=") || !strings.Contains(stdout.String(), "trace events to") {
		t.Fatalf("stdout %q lacks the flow lines or the trace summary", stdout.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("stderr %q, want nothing", stderr.String())
	}
	csv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{",cwnd,", ",loss,"} {
		if !strings.Contains(string(csv), kind) {
			t.Errorf("trace CSV has no %s rows", kind)
		}
	}
}

// TestWriteTraceReportsDropped: events past the tracer's cap are gone, and
// the command says how many on stderr instead of silently writing a
// truncated file.
func TestWriteTraceReportsDropped(t *testing.T) {
	tr := &flowtrace.Tracer{Cap: 2}
	for i := 0; i < 5; i++ {
		tr.Record(flowtrace.Event{At: float64(i), Kind: flowtrace.KindCwnd, Value: 10})
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	var stdout, stderr bytes.Buffer
	if err := writeTrace(tr, path, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "wrote 2 trace events") {
		t.Errorf("stdout %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "3 events dropped past the 2-event cap") {
		t.Errorf("stderr %q does not report the 3 dropped events", stderr.String())
	}
	if err := writeTrace(tr, filepath.Join(t.TempDir(), "missing", "t.csv"), &stdout, &stderr); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}
