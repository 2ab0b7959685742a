// Package nn is a compact pure-Go neural-network library sufficient for the
// paper's actor/critic models: fully-connected layers with ReLU/Tanh
// activations, mean-squared-error loss, reverse-mode gradients, the Adam
// optimizer, soft target-network updates, and JSON weight serialization. It
// substitutes for the TensorFlow models in the paper's prototype.
package nn

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer nonlinearity.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	ReLU
	Tanh
)

// String names the activation for weight-file headers and error messages.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	}
	return fmt.Sprintf("activation(%d)", int(a))
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// derivFromOut computes the activation derivative given the activation
// output (both ReLU and Tanh permit this).
func (a Activation) derivFromOut(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// Dense is one fully-connected layer: out = act(W x + b).
type Dense struct {
	In, Out int
	Act     Activation
	W       []float64 // row-major [Out][In]
	B       []float64

	// Adam state and gradient accumulators: nil in a network that has not
	// trained (a Clone, a loaded policy) until trainState allocates them.
	mW, vW, mB, vB []float64
	gW, gB         []float64
}

// NewDense builds a layer with He/Xavier-style initialization drawn from
// rng, its optimizer state allocated: a new layer is built to train.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, Act: act, W: make([]float64, in*out), B: make([]float64, out)}
	d.trainState()
	scale := math.Sqrt(2.0 / float64(in))
	if act == Tanh || act == Linear {
		scale = math.Sqrt(1.0 / float64(in))
	}
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
	return d
}

// trainState allocates the layer's Adam moments and gradient accumulators,
// zeroed, if it has none yet. Backward, BackwardBatch with accumulate and
// Adam.Step call it, so a network that only runs forward (a target network,
// a rollout snapshot, a served policy) never carries three times its
// weights in optimizer state.
func (d *Dense) trainState() {
	if d.gW != nil {
		return
	}
	nW, nB := len(d.W), len(d.B)
	buf := make([]float64, 3*(nW+nB))
	d.mW, buf = buf[:nW:nW], buf[nW:]
	d.vW, buf = buf[:nW:nW], buf[nW:]
	d.gW, buf = buf[:nW:nW], buf[nW:]
	d.mB, buf = buf[:nB:nB], buf[nB:]
	d.vB, d.gB = buf[:nB:nB], buf[nB:]
}

// forward computes the layer output into out. Each output starts from its
// bias and takes W[o][i]·x[i] over i ascending, one fused multiply-add per
// term, as ForwardBatch does. Where useAVX2 is set the vector kernel takes
// the leading outputs (forwardTiled); the rest, and every output on the
// portable path, run here four at a time: one sum's chain is bound by the
// multiply-add latency, and four independent ones hide it without
// reordering any sum. The last Out mod 4 run one at a time.
func (d *Dense) forward(x, out []float64) {
	in := d.In
	x = x[:in]
	o := 0
	if useAVX2 {
		o = d.forwardTiled(x, out)
	}
	for ; o+4 <= d.Out; o += 4 {
		r0 := d.W[o*in : (o+1)*in]
		r1 := d.W[(o+1)*in : (o+2)*in]
		r2 := d.W[(o+2)*in : (o+3)*in]
		r3 := d.W[(o+3)*in : (o+4)*in]
		s0, s1, s2, s3 := d.B[o], d.B[o+1], d.B[o+2], d.B[o+3]
		for i, xi := range x {
			s0 = math.FMA(r0[i], xi, s0)
			s1 = math.FMA(r1[i], xi, s1)
			s2 = math.FMA(r2[i], xi, s2)
			s3 = math.FMA(r3[i], xi, s3)
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < d.Out; o++ {
		sum := d.B[o]
		row := d.W[o*in : (o+1)*in]
		for i, xi := range x {
			sum = math.FMA(row[i], xi, sum)
		}
		out[o] = sum
	}
	switch d.Act {
	case Linear:
	case ReLU:
		relu(out)
	default:
		for o, v := range out {
			out[o] = d.Act.apply(v)
		}
	}
}

// forwardTiled sets y[o] = B[o] + Σ_i W[o][i]·x[i] on the vector kernel
// (gemvTiles) for the leading outputs, whole blocks of 4, and returns how
// many it set; forward runs the rest. The kernel takes whole blocks of
// columns too: the last In mod 4 terms of each sum continue here, in i
// order, one math.FMA each.
func (d *Dense) forwardTiled(x, y []float64) int {
	in := d.In
	o, n := d.Out&^3, in&^3
	if o == 0 || n == 0 {
		return 0
	}
	copy(y[:o], d.B)
	gemvTiles(y, d.W, x, o, n, in)
	for r := 0; n < in && r < o; r++ {
		s := y[r]
		for j, v := range d.W[r*in+n : (r+1)*in] {
			s = math.FMA(v, x[n+j], s)
		}
		y[r] = s
	}
	return o
}

// MLP is a stack of Dense layers.
type MLP struct {
	Layers []*Dense

	// scratch per-layer activations for forward/backward; MLP is not safe
	// for concurrent use.
	acts  [][]float64 // acts[0] = input copy, acts[i] = output of layer i-1
	grads [][]float64 // backward scratch, same shapes as acts

	// Batch-major scratch for ForwardBatch/BackwardBatch (batch.go), grown
	// on first use: bacts[0] aliases the caller's input, bacts[i] is the
	// [bn][Out] output of layer i-1, bgrads[i] the gradient at bacts[i],
	// and trans and bT hold the transposed operands the kernels copy (Wᵀ
	// for the AVX2 forward; on the portable path, the backward's Δᵀ, Xᵀ
	// and Wᵀ).
	bn        int
	bacts     [][]float64
	bgrads    [][]float64
	trans, bT []float64
}

// NewMLP builds an MLP with the given layer sizes; sizes[0] is the input
// width. All hidden layers use hiddenAct; the output layer uses outAct.
func NewMLP(rng *rand.Rand, hiddenAct, outAct Activation, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hiddenAct
		if i+2 == len(sizes) {
			act = outAct
		}
		m.Layers = append(m.Layers, NewDense(sizes[i], sizes[i+1], act, rng))
	}
	m.allocScratch()
	return m
}

func (m *MLP) allocScratch() {
	m.bacts, m.bgrads = nil, nil // batch scratch follows the layer count; regrown on use
	m.acts = make([][]float64, len(m.Layers)+1)
	m.grads = make([][]float64, len(m.Layers)+1)
	m.acts[0] = make([]float64, m.Layers[0].In)
	m.grads[0] = make([]float64, m.Layers[0].In)
	for i, l := range m.Layers {
		m.acts[i+1] = make([]float64, l.Out)
		m.grads[i+1] = make([]float64, l.Out)
	}
}

// InDim returns the input width.
func (m *MLP) InDim() int { return m.Layers[0].In }

// OutDim returns the output width.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }

// Forward runs the network and returns the output slice (owned by the MLP;
// copy it if you need it beyond the next call).
func (m *MLP) Forward(x []float64) []float64 {
	if len(x) != m.Layers[0].In {
		panic(fmt.Sprintf("nn: input dim %d, want %d", len(x), m.Layers[0].In))
	}
	copy(m.acts[0], x)
	for i, l := range m.Layers {
		l.forward(m.acts[i], m.acts[i+1])
	}
	return m.acts[len(m.Layers)]
}

// Backward accumulates parameter gradients for the last Forward call, given
// dLoss/dOutput, and returns dLoss/dInput. The returned slice is scratch
// owned by the MLP, valid until the next Backward call; copy it to retain.
func (m *MLP) Backward(dOut []float64) []float64 {
	n := len(m.Layers)
	grad := m.grads[n]
	copy(grad, dOut)
	for li := n - 1; li >= 0; li-- {
		l := m.Layers[li]
		l.trainState()
		in := m.acts[li]
		out := m.acts[li+1]
		next := m.grads[li]
		for i := range next {
			next[i] = 0
		}
		for o := 0; o < l.Out; o++ {
			// delta = grad * act'(out), computed in place in grad
			d := grad[o] * l.Act.derivFromOut(out[o])
			row := l.W[o*l.In : (o+1)*l.In]
			gRow := l.gW[o*l.In : (o+1)*l.In]
			l.gB[o] += d
			for i := 0; i < l.In; i++ {
				gRow[i] = math.FMA(d, in[i], gRow[i])
				next[i] = math.FMA(d, row[i], next[i])
			}
		}
		grad = next
	}
	return grad
}

// ZeroGrad clears accumulated gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		clear(l.gW)
		clear(l.gB)
	}
}

// Adam applies one Adam update using the accumulated gradients divided by
// batchScale, then clears them.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	t       int
	MaxNorm float64 // gradient clipping by global norm; 0 disables
}

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, MaxNorm: 10}
}

// Step updates m's parameters from its accumulated gradients (averaged over
// batchScale samples) and zeroes the accumulators.
func (a *Adam) Step(m *MLP, batchScale float64) {
	if batchScale <= 0 {
		batchScale = 1
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))

	for _, l := range m.Layers {
		l.trainState()
	}
	inv := 1 / batchScale
	clip := 1.0
	if a.MaxNorm > 0 {
		var norm float64
		for _, l := range m.Layers {
			for _, g := range l.gW {
				s := g * inv
				norm += s * s
			}
			for _, g := range l.gB {
				s := g * inv
				norm += s * s
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.MaxNorm {
			clip = a.MaxNorm / norm
		}
	}

	k := adamConsts{
		scale: inv * clip,
		beta1: a.Beta1, oneMinusBeta1: 1 - a.Beta1,
		beta2: a.Beta2, oneMinusBeta2: 1 - a.Beta2,
		bc1: bc1, bc2: bc2, lr: a.LR, eps: a.Eps,
	}
	for _, l := range m.Layers {
		k.update(l.W, l.gW, l.mW, l.vW)
		k.update(l.B, l.gB, l.mB, l.vB)
	}
}

// adamConsts are one Adam step's scalars, in the order adamAVX2 reads them.
type adamConsts struct {
	scale, beta1, oneMinusBeta1, beta2, oneMinusBeta2, bc1, bc2, lr, eps float64
}

// update applies the step to one parameter slice w with gradient
// accumulator g and moments m, v, and zeroes g: the AVX2 kernel takes
// whole groups of four values where useAVX2 is set, the loop below the
// rest, with the same operations in the same order.
func (k *adamConsts) update(w, g, m, v []float64) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	i := vecLen(len(w))
	if i > 0 {
		adamAVX2(&w[0], &g[0], &m[0], &v[0], i, k)
	}
	for ; i < len(w); i++ {
		gi := g[i] * k.scale
		m[i] = k.beta1*m[i] + k.oneMinusBeta1*gi
		v[i] = k.beta2*v[i] + k.oneMinusBeta2*gi*gi
		mhat := m[i] / k.bc1
		vhat := v[i] / k.bc2
		w[i] -= k.lr * mhat / (math.Sqrt(vhat) + k.eps)
		g[i] = 0
	}
}

// Clone returns a deep copy of the network's weights. It carries no
// optimizer or gradient state: that is allocated, zeroed, if the clone
// ever trains (trainState).
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		c.Layers = append(c.Layers, &Dense{In: l.In, Out: l.Out, Act: l.Act,
			W: append([]float64(nil), l.W...),
			B: append([]float64(nil), l.B...),
		})
	}
	c.allocScratch()
	return c
}

// SoftUpdate moves target's weights toward m's: target = (1-tau)*target +
// tau*m. Used for TD3 target networks.
func SoftUpdate(target, m *MLP, tau float64) {
	for li, l := range m.Layers {
		tl := target.Layers[li]
		for i := range l.W {
			tl.W[i] = (1-tau)*tl.W[i] + tau*l.W[i]
		}
		for i := range l.B {
			tl.B[i] = (1-tau)*tl.B[i] + tau*l.B[i]
		}
	}
}

// jsonModel is the serialized form.
type jsonModel struct {
	Layers []jsonLayer `json:"layers"`
}

type jsonLayer struct {
	In  int       `json:"in"`
	Out int       `json:"out"`
	Act string    `json:"act"`
	W   []float64 `json:"w"`
	B   []float64 `json:"b"`
}

// MarshalJSON implements json.Marshaler.
func (m *MLP) MarshalJSON() ([]byte, error) {
	jm := jsonModel{}
	for _, l := range m.Layers {
		jm.Layers = append(jm.Layers, jsonLayer{
			In: l.In, Out: l.Out, Act: l.Act.String(), W: l.W, B: l.B,
		})
	}
	return json.Marshal(jm)
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *MLP) UnmarshalJSON(data []byte) error {
	var jm jsonModel
	if err := json.Unmarshal(data, &jm); err != nil {
		return err
	}
	if len(jm.Layers) == 0 {
		return fmt.Errorf("nn: model has no layers")
	}
	m.Layers = nil
	prevOut := -1
	for li, jl := range jm.Layers {
		var act Activation
		switch jl.Act {
		case "linear":
			act = Linear
		case "relu":
			act = ReLU
		case "tanh":
			act = Tanh
		default:
			return fmt.Errorf("nn: unknown activation %q", jl.Act)
		}
		// Shapes are attacker-controlled here: non-positive dims would panic
		// in allocScratch, and In*Out can overflow int so that a bogus huge
		// shape "matches" an empty weight slice and then drives a giant
		// allocation.
		if jl.In < 1 || jl.Out < 1 {
			return fmt.Errorf("nn: layer %d has non-positive shape %dx%d", li, jl.In, jl.Out)
		}
		if jl.In > math.MaxInt/jl.Out {
			return fmt.Errorf("nn: layer %d shape %dx%d overflows", li, jl.In, jl.Out)
		}
		if len(jl.W) != jl.In*jl.Out || len(jl.B) != jl.Out {
			return fmt.Errorf("nn: layer shape mismatch: %dx%d with %d weights, %d biases",
				jl.In, jl.Out, len(jl.W), len(jl.B))
		}
		if prevOut >= 0 && jl.In != prevOut {
			return fmt.Errorf("nn: layer %d input %d does not match previous output %d", li, jl.In, prevOut)
		}
		prevOut = jl.Out
		m.Layers = append(m.Layers, &Dense{In: jl.In, Out: jl.Out, Act: act, W: jl.W, B: jl.B})
	}
	m.allocScratch()
	return nil
}
