package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/nn"
)

// TestRunRejectsQuantizedInput: a compiled blob from an older build of this
// tool is not a policy file any more; -in refuses it with an error that
// names the format and the remedy instead of a JSON parse error.
func TestRunRejectsQuantizedInput(t *testing.T) {
	var e ckpt.Encoder
	e.Int64(0x41515031) // the old blob's "AQP1" payload tag
	e.Int(1)
	in := filepath.Join(t.TempDir(), "actor.aqp")
	if err := os.WriteFile(in, ckpt.Seal(e.Payload()), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := cmdQuantize([]string{"-in", in, "-check", "0"}, &stdout, &stderr); code != 1 {
		t.Errorf("blob as -in: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "quantized blob") || !strings.Contains(stderr.String(), "float actor weights") {
		t.Fatalf("blob as -in: stderr %q, want an error naming the quantized blob and the float weights", stderr.String())
	}
}

// TestRunAcceptsFloatFormats: JSON weights and a sealed artifact of the same
// actor compile to the same network and report the same divergence, and
// the check writes nothing next to its input.
func TestRunAcceptsFloatFormats(t *testing.T) {
	cfg := core.DefaultConfig()
	net := nn.NewMLP(rand.New(rand.NewSource(2)), nn.ReLU, nn.Tanh, cfg.StateDim(), 8, 1)
	dir := t.TempDir()
	jsonIn, sealedIn := filepath.Join(dir, "actor.json"), filepath.Join(dir, "gen.policy")
	if err := core.SavePolicy(jsonIn, net); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveSealedPolicy(sealedIn, net, core.PolicyMeta{Generation: 2}); err != nil {
		t.Fatal(err)
	}
	var reports [2]string
	for i, in := range []string{jsonIn, sealedIn} {
		var stdout, stderr bytes.Buffer
		if code := cmdQuantize([]string{"-in", in, "-check", "200", "-tol", "1"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", in, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "worst |Δaction| over 200 sampled states") {
			t.Fatalf("%s: stdout %q reports no divergence", in, stdout.String())
		}
		reports[i] = strings.ReplaceAll(stdout.String(), in, "IN")
	}
	if reports[0] != reports[1] {
		t.Fatalf("JSON and sealed inputs of one actor report differently:\n%s\n%s", reports[0], reports[1])
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Fatalf("quantize wrote files: %d entries in the input directory (err %v), want the 2 inputs", len(entries), err)
	}
}

// TestQuantizeFailsAboveTolerance: a divergence over -tol exits 1 and says
// by how much.
func TestQuantizeFailsAboveTolerance(t *testing.T) {
	cfg := core.DefaultConfig()
	net := nn.NewMLP(rand.New(rand.NewSource(3)), nn.ReLU, nn.Tanh, cfg.StateDim(), 8, 1)
	in := filepath.Join(t.TempDir(), "actor.json")
	if err := core.SavePolicy(in, net); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := cmdQuantize([]string{"-in", in, "-check", "200", "-tol", "0"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-tol 0: exit %d, want 1 (stdout %q)", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "diverges from the float oracle") {
		t.Fatalf("-tol 0: stderr %q does not report the divergence", stderr.String())
	}
}
