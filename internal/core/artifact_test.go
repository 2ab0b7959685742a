package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
)

func sealedTestActor(t *testing.T, cfg Config, bias float64) *nn.MLP {
	t.Helper()
	net := nn.NewMLP(rand.New(rand.NewSource(7)), nn.ReLU, nn.Tanh, cfg.StateDim(), 6, 1)
	net.Layers[len(net.Layers)-1].B[0] = bias
	return net
}

// TestSealedPolicyRoundTrip: seal → LoadPolicy returns the float policy
// with identical weights and the exact metadata.
func TestSealedPolicyRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	net := sealedTestActor(t, cfg, 0.3)
	meta := PolicyMeta{Generation: 7, Parent: 6, CreatedUnix: 1700000000,
		Reward: "paper", Episodes: 420, Note: "gate 0.51 vs 0.49"}
	path := filepath.Join(t.TempDir(), "gen.policy")
	if err := SaveSealedPolicy(path, net, meta); err != nil {
		t.Fatal(err)
	}

	mp, got, err := LoadPolicy(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || *got != meta {
		t.Fatalf("meta round trip: got %+v want %+v", got, meta)
	}
	state := make([]float64, cfg.StateDim())
	if a, b := mp.Action(state), (&MLPPolicy{Net: net}).Action(state); a != b {
		t.Fatalf("sealed weights diverge: %v vs %v", a, b)
	}
}

// TestSealedPolicyCorruptionRejected: flipping any sampled byte or
// truncating the artifact must fail the load — the CRC guards the whole
// file, so a torn promotion can never be served.
func TestSealedPolicyCorruptionRejected(t *testing.T) {
	cfg := DefaultConfig()
	path := filepath.Join(t.TempDir(), "gen.policy")
	if err := SaveSealedPolicy(path, sealedTestActor(t, cfg, -0.2), PolicyMeta{Generation: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int{0, 1, len(data) / 3, len(data) / 2, len(data) - 1}
	for _, off := range offsets {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		tmp := filepath.Join(t.TempDir(), "bad.policy")
		if err := os.WriteFile(tmp, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadPolicy(tmp, cfg); err == nil {
			t.Fatalf("corruption at offset %d accepted", off)
		}
	}
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		tmp := filepath.Join(t.TempDir(), "short.policy")
		if err := os.WriteFile(tmp, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadPolicy(tmp, cfg); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestSealedPolicyDimensionValidated: a sealed artifact whose embedded actor
// does not match the serving config is refused with the shared shape error.
func TestSealedPolicyDimensionValidated(t *testing.T) {
	cfg := DefaultConfig()
	wrong := nn.NewMLP(rand.New(rand.NewSource(9)), nn.ReLU, nn.Tanh, cfg.StateDim()+8, 4, 1)
	path := filepath.Join(t.TempDir(), "gen.policy")
	if err := SaveSealedPolicy(path, wrong, PolicyMeta{Generation: 1}); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadPolicy(path, cfg)
	if err == nil || !strings.Contains(err.Error(), "states") {
		t.Fatalf("wrong-dimension sealed artifact: err = %v", err)
	}
}
