package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nn"
)

// FuzzLoadPolicy exercises the full deployment-side loading path: arbitrary
// bytes land on disk as a policy file, and LoadPolicy either rejects them
// with an error or returns a policy whose Action runs without panicking and
// respects the clamp (never outside [-1, 1]; NaN can only arise from
// arithmetic overflow inside a successfully validated net, which the clamp
// cannot catch, so only the range is asserted). Every policy that loads is
// then compiled with QuantizeMLPPolicy, as serve does at load: compiling
// either fails with an error or gives a network whose Action is in [-1, 1]
// on zero, extreme and small-integer states, and whose ActionBatch over
// those three rows is bitwise per-row Action. This is the input that
// reaches the fixed-point kernels from outside. The seeds cover both
// formats LoadPolicy reads — JSON weights and a sealed artifact — and a
// container it refuses (a quantized blob from an older build), so mutation
// reaches the container CRC, the payload-tag sniff and the sealed decoder,
// not only the JSON parser.
func FuzzLoadPolicy(f *testing.F) {
	cfg := DefaultConfig()
	// A short history keeps the valid seed inputs small (a default-width
	// actor serializes to tens of kilobytes, which cripples mutation
	// throughput) while exercising the identical validation paths.
	cfg.HistoryLen = 1
	rng := rand.New(rand.NewSource(3))
	actor := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 16, 1)
	if js, err := json.Marshal(actor); err == nil {
		f.Add(js)
	}
	wrongDim := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim()+1, 4, 1)
	if js, err := json.Marshal(wrongDim); err == nil {
		f.Add(js)
	}
	f.Add([]byte(`{"layers":[]}`))
	f.Add([]byte(`{"layers":[{"in":-1,"out":0,"act":"relu","w":[],"b":[]}]}`))
	f.Add([]byte("not json"))
	sealedPath := filepath.Join(f.TempDir(), "sealed")
	if err := SaveSealedPolicy(sealedPath, actor, PolicyMeta{Generation: 3}); err != nil {
		f.Fatal(err)
	}
	sealed, err := os.ReadFile(sealedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add(legacyAQP1Container())

	dir, err := os.MkdirTemp("", "fuzz-loadpolicy-*")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "policy.json")

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, _, err := LoadPolicy(path, cfg)
		if err != nil {
			return
		}
		state := make([]float64, cfg.StateDim())
		for i := range state {
			state[i] = float64(i%7) * 0.25
		}
		a := p.Action(state)
		if a < -1 || a > 1 {
			t.Fatalf("action %v escaped the [-1,1] clamp", a)
		}

		qp, err := QuantizeMLPPolicy(p, cfg)
		if err != nil {
			return
		}
		dim := cfg.StateDim()
		rows := make([]float64, 3*dim) // zeros, extremes, small integers
		for i := 0; i < dim; i++ {
			rows[dim+i] = []float64{math.Inf(1), math.NaN(), -1e30}[i%3]
			rows[2*dim+i] = float64(i%7) - 3
		}
		want := make([]float64, 3)
		for r := range want {
			want[r] = qp.Action(rows[r*dim : (r+1)*dim])
			if !(want[r] >= -1 && want[r] <= 1) {
				t.Fatalf("quantized action %v on row %d outside [-1,1]", want[r], r)
			}
		}
		got := make([]float64, 3)
		qp.ActionBatch(rows, 3, got)
		for r := range want {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("quantized ActionBatch row %d = %v, Action %v", r, got[r], want[r])
			}
		}
	})
}
