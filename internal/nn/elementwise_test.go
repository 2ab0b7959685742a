package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// special are the values the elementwise kernels must treat exactly as the
// scalar code does: signed zeros, infinities, NaN, subnormals, the ReLU and
// tanh′ edges at ±1, and ordinary values of both signs.
var special = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
	1, -1, math.Nextafter(1, 2), math.Nextafter(-1, -2), 0.5, -0.75, 3e300, -3e300, 1e-160,
}

// specialVals returns n values drawn from special, with every special value
// present once n is long enough, mixed with normals of either sign.
func specialVals(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch {
		case i < len(special):
			v[i] = special[(i*7)%len(special)]
		case rng.Intn(2) == 0:
			v[i] = special[rng.Intn(len(special))]
		default:
			v[i] = rng.NormFloat64()
		}
	}
	rng.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	return v
}

// sameBits compares as IEEE-754 bit patterns, except that two NaNs match
// whatever their payloads: the scalar and vector paths may pick a different
// NaN operand to propagate.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

func sameBitsAll(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), scalar %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestElementwiseMatchesScalarBitwise pins the batch path's elementwise
// passes — ReLU in place, Δ = grad ∘ act′(y) for every activation (into a
// separate slice and in place over grad), and the gB column sum — to their
// scalar definitions on special values at every length 0..37, with guard
// words after every output, on each kernel path.
func TestElementwiseMatchesScalarBitwise(t *testing.T) {
	const guards = 5
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for n := 0; n <= 37; n++ {
			y, grad := specialVals(rng, n), specialVals(rng, n)

			want := make([]float64, n)
			for i, v := range y {
				want[i] = v
				if v < 0 {
					want[i] = 0
				}
			}
			buf, intact := guarded(y, guards)
			relu(buf[:n])
			what := fmt.Sprintf("relu n=%d", n)
			sameBitsAll(t, what, buf[:n], want)
			intact(t, what)

			for _, act := range []Activation{ReLU, Tanh, Linear} {
				for i := range want {
					want[i] = grad[i] * act.derivFromOut(y[i])
				}
				out, intact := guarded(make([]float64, n), guards)
				actDelta(act, out[:n], grad, y)
				what := fmt.Sprintf("%v delta n=%d", act, n)
				sameBitsAll(t, what, out[:n], want)
				intact(t, what)

				inPlace, intact := guarded(grad, guards)
				actDelta(act, inPlace[:n], inPlace[:n], y)
				what += " in place"
				sameBitsAll(t, what, inPlace[:n], want)
				intact(t, what)
			}

			if n == 0 {
				continue
			}
			for _, rows := range []int{1, 2, 3, 7} {
				d := specialVals(rng, rows*n)
				g0 := specialVals(rng, n)
				for i := range want {
					s := g0[i]
					for r := 0; r < rows; r++ {
						s += d[r*n+i]
					}
					want[i] = s
				}
				sum, intact := guarded(g0, guards)
				sumRows(sum[:n], d, rows)
				what := fmt.Sprintf("sumRows %d×%d", rows, n)
				sameBitsAll(t, what, sum[:n], want)
				intact(t, what)
			}
		}
	})
}

// TestAdamKernelMatchesScalarBitwise runs Adam.Step for three steps on each
// kernel path against the scalar update written out here, with gradient
// clipping on (and biting) and off, on layer widths that leave every
// remainder of 4. Weights, both moments and the zeroed gradients must match
// bit for bit.
func TestAdamKernelMatchesScalarBitwise(t *testing.T) {
	scalarStep := func(a *Adam, m *MLP, batchScale float64) {
		a.t++
		bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
		bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
		inv, clip := 1/batchScale, 1.0
		if a.MaxNorm > 0 {
			var norm float64
			for _, l := range m.Layers {
				for _, g := range append(append([]float64(nil), l.gW...), l.gB...) {
					s := g * inv
					norm += s * s
				}
			}
			if norm = math.Sqrt(norm); norm > a.MaxNorm {
				clip = a.MaxNorm / norm
			}
		}
		scale := inv * clip
		upd := func(w, g, mm, vv []float64) {
			for i := range w {
				gi := g[i] * scale
				mm[i] = a.Beta1*mm[i] + (1-a.Beta1)*gi
				vv[i] = a.Beta2*vv[i] + (1-a.Beta2)*gi*gi
				mhat := mm[i] / bc1
				vhat := vv[i] / bc2
				w[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
				g[i] = 0
			}
		}
		for _, l := range m.Layers {
			upd(l.W, l.gW, l.mW, l.vW)
			upd(l.B, l.gB, l.mB, l.vB)
		}
	}
	for _, maxNorm := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("MaxNorm=%v", maxNorm), func(t *testing.T) {
			forEachKernel(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(37))
				net := NewMLP(rng, ReLU, Tanh, 13, 7, 6, 8, 1)
				ref := net.Clone()
				opt, refOpt := NewAdam(3e-3), NewAdam(3e-3)
				opt.MaxNorm, refOpt.MaxNorm = maxNorm, maxNorm
				for step := 0; step < 3; step++ {
					for li, l := range net.Layers {
						for _, g := range [][]float64{l.gW, l.gB} {
							for i := range g {
								g[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(9)-2)
							}
						}
						copy(ref.Layers[li].gW, l.gW)
						copy(ref.Layers[li].gB, l.gB)
					}
					opt.Step(net, 3)
					scalarStep(refOpt, ref, 3)
					for li, l := range net.Layers {
						r := ref.Layers[li]
						for _, pair := range []struct {
							name      string
							got, want []float64
						}{
							{"W", l.W, r.W}, {"B", l.B, r.B}, {"mW", l.mW, r.mW}, {"vW", l.vW, r.vW},
							{"mB", l.mB, r.mB}, {"vB", l.vB, r.vB}, {"gW", l.gW, r.gW}, {"gB", l.gB, r.gB},
						} {
							bitsEqual(t, fmt.Sprintf("step %d layer %d %s", step, li, pair.name), pair.got, pair.want)
						}
					}
				}
			})
		})
	}
}

// criticShape is the paper's critic: 53 inputs (global, state and action
// features), 256/128/64 hidden, one output, trained at batch 192.
var criticShape = []int{53, 256, 128, 64, 1}

const paperBatch = 192

// elemTiers are the tiers the elementwise benchmarks price: the AVX-512
// tier runs the same elementwise kernels as the AVX2 one.
var elemTiers = tierNames[:tierAVX512]

// BenchmarkAdamStep prices one Adam.Step over the paper's critic (≈ 55 k
// parameters) on each path this machine runs, in parameters per ns. The
// scalar global-norm sum is included, as it is in every step.
func BenchmarkAdamStep(b *testing.B) {
	net := NewMLP(rand.New(rand.NewSource(1)), ReLU, Linear, criticShape...)
	params := 0
	for _, l := range net.Layers {
		params += len(l.W) + len(l.B)
	}
	benchEachKernel(b, "", elemTiers, func(b *testing.B) {
		opt := NewAdam(1e-4)
		for i := 0; i < b.N; i++ {
			opt.Step(net, paperBatch)
		}
		b.ReportMetric(float64(params)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "param/ns")
	})
}

// BenchmarkBatchActivation prices the elementwise passes over the paper's
// critic hidden layers at batch 192, on each path this machine runs, in
// values per ns: the forward ReLU (on a fresh copy of mixed-sign
// pre-activations each time, so the scalar branch stays unpredictable),
// the backward ReLU′ product, and the gB column sum.
func BenchmarkBatchActivation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	widths := criticShape[1 : len(criticShape)-1]
	values := 0
	for _, w := range widths {
		values += paperBatch * w
	}
	type layer struct{ pre, y, grad, delta, gB []float64 }
	layers := make([]layer, len(widths))
	for i, w := range widths {
		n := paperBatch * w
		l := layer{pre: make([]float64, n), y: make([]float64, n), grad: make([]float64, n),
			delta: make([]float64, n), gB: make([]float64, w)}
		for k := range l.pre {
			l.pre[k], l.grad[k] = rng.NormFloat64(), rng.NormFloat64()
			l.y[k] = max(l.pre[k], 0)
		}
		layers[i] = l
	}
	for _, pass := range []struct {
		name string
		run  func(l layer)
	}{
		{"relu", func(l layer) { copy(l.delta, l.pre); relu(l.delta) }},
		{"reluDelta", func(l layer) { actDelta(ReLU, l.delta, l.grad, l.y) }},
		{"sumRows", func(l layer) { sumRows(l.gB, l.delta, paperBatch) }},
	} {
		benchEachKernel(b, pass.name+"/", elemTiers, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, l := range layers {
					pass.run(l)
				}
			}
			b.ReportMetric(float64(values)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "val/ns")
		})
	}
}
