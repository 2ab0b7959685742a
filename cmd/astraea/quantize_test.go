package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
)

// TestRunRejectsQuantizedInput: a quantized blob passed as -in is already
// compiled; the tool refuses it with an error that names the format instead
// of a JSON parse error, and writes nothing.
func TestRunRejectsQuantizedInput(t *testing.T) {
	cfg := core.DefaultConfig()
	net := nn.NewMLP(rand.New(rand.NewSource(1)), nn.ReLU, nn.Tanh, cfg.StateDim(), 8, 1)
	qp, err := core.QuantizeMLPPolicy(&core.MLPPolicy{Net: net}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "actor.aqp")
	if err := core.SaveQuantizedPolicy(in, qp); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "again.aqp")
	var stdout, stderr bytes.Buffer
	if code := cmdQuantize([]string{"-in", in, "-out", out, "-check", "0"}, &stdout, &stderr); code != 1 {
		t.Errorf("blob as -in: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "quantized policy blob") {
		t.Fatalf("blob as -in: stderr %q, want an error naming the quantized blob format", stderr.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("refused input still wrote %s (stat err %v)", out, err)
	}
}

// TestRunAcceptsFloatFormats: JSON weights and a sealed artifact of the same
// actor compile to the same blob.
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
	var blobs [2][]byte
	for i, in := range []string{jsonIn, sealedIn} {
		out := in + ".aqp"
		var stdout, stderr bytes.Buffer
		if code := cmdQuantize([]string{"-in", in, "-out", out, "-check", "0"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", in, code, stderr.String())
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = b
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Fatal("JSON and sealed inputs of one actor compiled to different blobs")
	}
}
