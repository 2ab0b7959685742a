package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ckpt"
)

// numericalGrad estimates dLoss/dW[i] for a scalar loss by central
// differences.
func numericalGrad(m *MLP, x, target []float64, layer, wi int) float64 {
	const h = 1e-6
	loss := func() float64 {
		out := m.Forward(x)
		var l float64
		for i := range out {
			d := out[i] - target[i]
			l += 0.5 * d * d
		}
		return l
	}
	orig := m.Layers[layer].W[wi]
	m.Layers[layer].W[wi] = orig + h
	lp := loss()
	m.Layers[layer].W[wi] = orig - h
	lm := loss()
	m.Layers[layer].W[wi] = orig
	return (lp - lm) / (2 * h)
}

func TestBackpropMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, ReLU, Tanh, 4, 8, 6, 2)
	x := []float64{0.3, -0.7, 1.2, 0.1}
	target := []float64{0.5, -0.2}

	out := m.Forward(x)
	dOut := make([]float64, len(out))
	for i := range out {
		dOut[i] = out[i] - target[i]
	}
	m.ZeroGrad()
	m.Forward(x)
	m.Backward(dOut)

	for layer := range m.Layers {
		l := m.Layers[layer]
		for _, wi := range []int{0, len(l.W) / 2, len(l.W) - 1} {
			want := numericalGrad(m, x, target, layer, wi)
			got := l.gW[wi]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("layer %d W[%d]: analytic %g numeric %g", layer, wi, got, want)
			}
		}
	}
}

func TestBackwardInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, Tanh, Linear, 3, 5, 1)
	x := []float64{0.2, -0.4, 0.9}

	out := m.Forward(x)
	m.ZeroGrad()
	dIn := m.Backward([]float64{1})
	_ = out

	const h = 1e-6
	for i := range x {
		xp := append([]float64(nil), x...)
		xp[i] += h
		up := m.Forward(xp)[0]
		xm := append([]float64(nil), x...)
		xm[i] -= h
		um := m.Forward(xm)[0]
		want := (up - um) / (2 * h)
		if math.Abs(dIn[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("dIn[%d]: analytic %g numeric %g", i, dIn[i], want)
		}
	}
}

func TestAdamLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(rng, Tanh, Linear, 2, 16, 1)
	opt := NewAdam(0.01)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 2000; epoch++ {
		for i, x := range inputs {
			out := m.Forward(x)
			m.Backward([]float64{out[0] - targets[i]})
		}
		opt.Step(m, float64(len(inputs)))
	}
	for i, x := range inputs {
		got := m.Forward(x)[0]
		if math.Abs(got-targets[i]) > 0.1 {
			t.Errorf("XOR(%v) = %.3f, want %.0f", x, got, targets[i])
		}
	}
}

func TestAdamLearnsRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP(rng, ReLU, Linear, 1, 32, 1)
	opt := NewAdam(0.005)
	f := func(x float64) float64 { return math.Sin(3 * x) }
	var lastLoss float64
	for epoch := 0; epoch < 1500; epoch++ {
		var loss float64
		for i := 0; i < 32; i++ {
			x := rng.Float64()*2 - 1
			out := m.Forward([]float64{x})
			d := out[0] - f(x)
			loss += 0.5 * d * d
			m.Backward([]float64{d})
		}
		opt.Step(m, 32)
		lastLoss = loss / 32
	}
	if lastLoss > 0.01 {
		t.Errorf("final loss %g, want < 0.01", lastLoss)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMLP(rng, ReLU, Tanh, 3, 4, 2)
	c := m.Clone()
	x := []float64{1, 2, 3}
	a := append([]float64(nil), m.Forward(x)...)
	b := append([]float64(nil), c.Forward(x)...)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clone output differs: %v vs %v", a, b)
		}
	}
	m.Layers[0].W[0] += 1
	b2 := c.Forward(x)
	for i := range b {
		if b[i] != b2[i] {
			t.Fatal("mutating original changed clone")
		}
	}
}

// A clone or a loaded network carries weights only: its optimizer state
// appears, zeroed, at its first Backward, accumulating BackwardBatch or
// Adam step, and until then it encodes the same bytes as a network holding
// that zeroed state. Training it from there matches training a network
// whose state was allocated up front.
func TestTrainStateAllocatedOnFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMLP(rng, ReLU, Tanh, 3, 5, 2)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var loaded MLP
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	encode := func(m *MLP) string {
		var e ckpt.Encoder
		m.Encode(&e)
		return string(e.Payload())
	}
	x, dOut := []float64{0.4, -0.3, 0.8}, []float64{0.5, -1}
	for name, first := range map[string]func(m *MLP){
		"Backward":                  func(m *MLP) { m.Forward(x); m.Backward(dOut) },
		"BackwardBatch(accumulate)": func(m *MLP) { m.ForwardBatch(x, 1); m.BackwardBatch(dOut, true, true) },
		"Adam.Step":                 func(m *MLP) { NewAdam(0.01).Step(m, 1) },
	} {
		for src, c := range map[string]*MLP{"clone": m.Clone(), "JSON": loaded.Clone()} {
			eager := withTrainState(c.Clone())
			c.Forward(x)
			c.ForwardBatch(x, 1)
			c.BackwardBatch(dOut, false, true)
			c.ZeroGrad()
			for li, l := range c.Layers {
				if l.mW != nil || l.vW != nil || l.mB != nil || l.vB != nil || l.gW != nil || l.gB != nil {
					t.Fatalf("%s %s: layer %d holds optimizer state before training", name, src, li)
				}
			}
			if encode(c) != encode(eager) {
				t.Fatalf("%s %s: untrained network encodes differently from one with zeroed state", name, src)
			}
			first(c)
			first(eager)
			for li, l := range c.Layers {
				if len(l.mW) != len(l.W) || len(l.gB) != len(l.B) {
					t.Fatalf("%s %s: layer %d has no optimizer state after training", name, src, li)
				}
			}
			if encode(c) != encode(eager) {
				t.Fatalf("%s %s: training from lazily allocated state diverged", name, src)
			}
		}
	}
}

func TestSoftUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewMLP(rng, ReLU, Linear, 2, 3, 1)
	tgt := m.Clone()
	m.Layers[0].W[0] = 10
	tgt.Layers[0].W[0] = 0
	SoftUpdate(tgt, m, 0.1)
	if math.Abs(tgt.Layers[0].W[0]-1.0) > 1e-12 {
		t.Fatalf("soft update: got %g, want 1.0", tgt.Layers[0].W[0])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := NewMLP(rng, ReLU, Tanh, 5, 7, 3)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 MLP
	if err := json.Unmarshal(data, &m2); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	a := append([]float64(nil), m.Forward(x)...)
	b := m2.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round-trip output differs at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestUnmarshalRejectsBadShapes(t *testing.T) {
	bad := `{"layers":[{"in":2,"out":3,"act":"relu","w":[1,2],"b":[0,0,0]}]}`
	var m MLP
	if err := json.Unmarshal([]byte(bad), &m); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
	badAct := `{"layers":[{"in":1,"out":1,"act":"softmax","w":[1],"b":[0]}]}`
	if err := json.Unmarshal([]byte(badAct), &m); err == nil {
		t.Fatal("expected unknown-activation error")
	}
}

// Regression (found via FuzzCodecRead): hostile shape fields used to slip
// past the weight-count check and then panic or OOM in allocScratch, and a
// mismatched layer chain decoded fine only to panic at the first Forward.
func TestUnmarshalRejectsHostileShapes(t *testing.T) {
	cases := map[string]string{
		"negative in": `{"layers":[{"in":-1,"out":0,"act":"relu","w":[],"b":[]}]}`,
		"zero out":    `{"layers":[{"in":1,"out":0,"act":"relu","w":[],"b":[]}]}`,
		// 2^32 x 2^32 overflows int to 0, "matching" the empty weight slice.
		"overflowing product": `{"layers":[{"in":4294967296,"out":4294967296,"act":"relu","w":[],"b":[]}]}`,
		"broken chain": `{"layers":[{"in":1,"out":2,"act":"relu","w":[1,1],"b":[0,0]},
			{"in":3,"out":1,"act":"linear","w":[1,1,1],"b":[0]}]}`,
	}
	for name, data := range cases {
		var m MLP
		if err := json.Unmarshal([]byte(data), &m); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The binary codec's counterpart of the overflowing-product case above: a
// one-layer payload of shape 2^62 × 4, whose In·Out wraps to 0 so that its
// four empty weight-shaped slices "match" (and its four bias-shaped ones
// hold the 4 values they should), must be refused, not panic in
// allocScratch sizing its buffers by In.
func TestDecodeMLPRejectsHostileShapes(t *testing.T) {
	const in, out = 1 << 62, 4
	var e ckpt.Encoder
	e.Int(1) // layers
	e.Int64(in)
	e.Int64(out)
	e.Int(int(ReLU))
	bias := make([]float64, out)
	for _, v := range [][]float64{nil, bias, nil, nil, bias, bias, nil, bias} { // W B mW vW mB vB gW gB
		e.Float64s(v)
	}
	if _, err := DecodeMLP(ckpt.NewDecoder(e.Payload())); err == nil {
		t.Fatal("overflowing 2^62×4 layer accepted")
	}
}

// Property: tanh output layer bounds every output to (-1, 1) for arbitrary
// inputs — the action block depends on this.
func TestTanhOutputBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := NewMLP(rng, ReLU, Tanh, 4, 8, 1)
	f := func(a, b, c, d float64) bool {
		// Constrain to the normalized feature range the state block emits;
		// astronomically large raw floats would overflow any finite net.
		squash := func(v float64) float64 { return math.Mod(v, 100) }
		out := m.Forward([]float64{squash(a), squash(b), squash(c), squash(d)})
		// float64 tanh saturates to exactly ±1 for |x| ≳ 19.
		return out[0] >= -1 && out[0] <= 1 && !math.IsNaN(out[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardPanicsOnWrongDim(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewMLP(rng, ReLU, Linear, 3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input dim")
		}
	}()
	m.Forward([]float64{1, 2})
}

func TestGradClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := NewMLP(rng, Linear, Linear, 1, 1)
	opt := NewAdam(0.1)
	opt.MaxNorm = 1
	m.Forward([]float64{1e6})
	m.Backward([]float64{1e6})
	before := m.Layers[0].W[0]
	opt.Step(m, 1)
	after := m.Layers[0].W[0]
	// With clipping and Adam, the step magnitude is bounded by ~LR.
	if math.Abs(after-before) > 0.2 {
		t.Fatalf("step %g too large despite clipping", after-before)
	}
}
