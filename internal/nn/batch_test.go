package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), looped reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBatchMatchesLoopedBitwise is the differential test behind the
// summation-order contract: ForwardBatch/BackwardBatch against Forward/
// Backward looped over the rows, compared as IEEE-754 bit patterns, over
// layer shapes and batch sizes that reach every kernel remainder path (odd
// Out, In not a multiple of 4, n odd, n = 1) and all three activations, for
// outputs, gW, gB and dX, under both flag settings, on every mulNN path
// this machine runs. Gradients start from a non-zero accumulator so
// "continue the running sum" is checked too.
func TestBatchMatchesLoopedBitwise(t *testing.T) {
	shapes := [][]int{
		{5, 7, 3},
		{8, 4, 4, 1},
		{13, 33, 18, 7, 2},
		{52, 64, 1},
		{1, 1},
		{6, 2, 9},
	}
	acts := [][2]Activation{{ReLU, Tanh}, {ReLU, Linear}, {Tanh, Linear}, {Linear, ReLU}}
	rng := rand.New(rand.NewSource(17))
	for si, sizes := range shapes {
		for _, n := range []int{1, 2, 3, 5, 192} {
			act := acts[(si+n)%len(acts)]
			t.Run(fmt.Sprintf("%v/%v-%v/n%d", sizes, act[0], act[1], n), func(t *testing.T) {
				base := NewMLP(rng, act[0], act[1], sizes...)
				for _, l := range base.Layers {
					for i := range l.B {
						l.B[i] = rng.NormFloat64()
					}
					for i := range l.gW {
						l.gW[i] = rng.NormFloat64()
					}
					for i := range l.gB {
						l.gB[i] = rng.NormFloat64()
					}
				}
				in, out := base.InDim(), base.OutDim()
				x, dOut := make([]float64, n*in), make([]float64, n*out)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				for i := range dOut {
					dOut[i] = rng.NormFloat64()
				}
				withGrads := func() *MLP {
					c := base.Clone()
					for li, l := range base.Layers {
						copy(c.Layers[li].gW, l.gW)
						copy(c.Layers[li].gB, l.gB)
					}
					return c
				}

				ref := withGrads()
				wantY, wantDX := make([]float64, 0, n*out), make([]float64, 0, n*in)
				for s := 0; s < n; s++ {
					wantY = append(wantY, ref.Forward(x[s*in:(s+1)*in])...)
					wantDX = append(wantDX, ref.Backward(dOut[s*out:(s+1)*out])...)
				}

				forEachKernel(t, func(t *testing.T) {
					for _, accumulate := range []bool{true, false} {
						for _, needInput := range []bool{true, false} {
							m := withGrads()
							dOutCopy := append([]float64(nil), dOut...)
							bitsEqual(t, "ForwardBatch output", m.ForwardBatch(x, n), wantY)
							dx := m.BackwardBatch(dOut, accumulate, needInput)
							bitsEqual(t, "dOut after BackwardBatch", dOut, dOutCopy)
							if needInput {
								bitsEqual(t, "dX", dx, wantDX)
							} else if dx != nil {
								t.Fatalf("needInput=false returned %d values, want nil", len(dx))
							}
							wantG := ref // n samples accumulated on top of the starting values
							if !accumulate {
								wantG = base // untouched
							}
							for li, l := range m.Layers {
								bitsEqual(t, fmt.Sprintf("accumulate=%v layer %d gW", accumulate, li), l.gW, wantG.Layers[li].gW)
								bitsEqual(t, fmt.Sprintf("accumulate=%v layer %d gB", accumulate, li), l.gB, wantG.Layers[li].gB)
							}
						}
					}
				})
			})
		}
	}
}

// TestBatchScratchReusedAcrossSizes: a smaller batch after a larger one (the
// ragged last minibatch of an epoch) must reslice the existing scratch, and
// going back up must not reallocate either.
func TestBatchScratchReusedAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP(rng, ReLU, Tanh, 6, 9, 5, 2)
	x := make([]float64, 8*6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dOut := make([]float64, 8*2)
	step := func(n int) {
		m.ForwardBatch(x[:n*6], n)
		m.BackwardBatch(dOut[:n*2], true, true)
	}
	step(8)
	if a := testing.AllocsPerRun(20, func() { step(3); step(8); step(1) }); a != 0 {
		t.Fatalf("changing batch size below the high-water mark allocates %.1f times, want 0", a)
	}
	// And the short batch must still be right, not read stale rows.
	want := append([]float64(nil), m.Forward(x[:6])...)
	bitsEqual(t, "n=1 after n=8", m.ForwardBatch(x[:6], 1), want)
}

func TestBatchShapeMismatchPanics(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), ReLU, Tanh, 3, 4, 2)
	for name, fn := range map[string]func(){
		"short input": func() { m.ForwardBatch(make([]float64, 5), 2) },
		"zero rows":   func() { m.ForwardBatch(nil, 0) },
		"wrong dOut":  func() { m.ForwardBatch(make([]float64, 6), 2); m.BackwardBatch(make([]float64, 3), true, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// kernelPaths lists the mulNN paths this machine can execute, as the
// useAVX2 value selecting each: always the portable path, and the AVX2
// tile where the CPU has it.
func kernelPaths() []bool {
	if haveAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

var kernelName = map[bool]string{false: "portable", true: "avx2"}

// forEachKernel runs fn as a subtest per mulNN path this machine can
// execute, with the package selector set accordingly. Subtests under it
// must not be parallel: the selector is process-wide.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, avx := range kernelPaths() {
		t.Run(kernelName[avx], func(t *testing.T) {
			defer func(was bool) { useAVX2 = was }(useAVX2)
			useAVX2 = avx
			fn(t)
		})
	}
}

// guard is the bit pattern written past the end of c (and, for the bare
// AVX2 kernel, into every cell outside its tiles): a NaN no arithmetic here
// produces, so any store that lands on it shows.
const guard = 0x7ff8_dead_beef_0001

// TestMulNNMatchesScalarBitwise pins mulNN to the plain triple loop, as
// IEEE-754 bit patterns, for every m mod 4 and p mod 8 remainder (with zero,
// one and two whole tiles), k in {1, 2, 53, 192}, and a non-zero starting c.
// Operands span several binades, so a reordered sum or a fused multiply-add
// changes the bits. Guard words after c catch a store past the end; on the
// AVX2 path the bare kernel is also run with every non-tile cell guarded,
// which catches a tile writing past its 8 columns or its 4 rows.
func TestMulNNMatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	val := func() float64 { return rng.NormFloat64() * math.Ldexp(1, rng.Intn(21)-10) }
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = val()
		}
		return v
	}
	const guards = 8
	forEachKernel(t, func(t *testing.T) {
		var bT []float64
		for _, k := range []int{1, 2, 53, 192} {
			for m := 1; m <= 9; m++ {
				for p := 1; p <= 17; p++ {
					a, b, c0 := fill(m*k), fill(k*p), fill(m*p)
					want := make([]float64, m*p)
					for r := 0; r < m; r++ {
						for q := 0; q < p; q++ {
							s := c0[r*p+q]
							for j := 0; j < k; j++ {
								s += a[r*k+j] * b[j*p+q]
							}
							want[r*p+q] = s
						}
					}
					buf := append(append([]float64(nil), c0...), make([]float64, guards)...)
					for i := m * p; i < len(buf); i++ {
						buf[i] = math.Float64frombits(guard)
					}
					mulNN(buf[:m*p], a, b, m, p, k, &bT)
					what := fmt.Sprintf("m=%d p=%d k=%d: c", m, p, k)
					bitsEqual(t, what, buf[:m*p], want)
					for i := m * p; i < len(buf); i++ {
						if math.Float64bits(buf[i]) != guard {
							t.Fatalf("%s: guard word %d after c overwritten with %v", what, i-m*p, buf[i])
						}
					}

					m4, p8 := m-m%4, p-p%8
					if !useAVX2 || m4 == 0 || p8 == 0 {
						continue
					}
					tiled := make([]float64, len(buf))
					for i := range tiled {
						tiled[i] = math.Float64frombits(guard)
						if r, q := i/p, i%p; i < m*p && r < m4 && q < p8 {
							tiled[i] = c0[i]
						}
					}
					mulNNTiles(tiled, a, b, m4, p8, k, p)
					for i, v := range tiled {
						if r, q := i/p, i%p; i < m*p && r < m4 && q < p8 {
							if math.Float64bits(v) != math.Float64bits(want[i]) {
								t.Fatalf("%s: AVX2 tile cell [%d][%d] = %#x, want %#x", what, r, q, math.Float64bits(v), math.Float64bits(want[i]))
							}
						} else if math.Float64bits(v) != guard {
							t.Fatalf("%s: AVX2 kernel wrote outside its tiles at [%d][%d]", what, i/p, i%p)
						}
					}
				}
			}
		}
	})
}

// BenchmarkMulNN prices mulNN on the three products of the paper's widest
// layer (256→128) at the paper's batch size, on each path this machine
// runs, in multiply-adds per nanosecond. The portable figure includes its
// transpose of b.
func BenchmarkMulNN(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range []struct {
		name    string
		m, p, k int
	}{{"forward", 192, 128, 256}, {"paramGrad", 128, 256, 192}, {"inputGrad", 192, 256, 128}} {
		a, bm, c := make([]float64, sh.m*sh.k), make([]float64, sh.k*sh.p), make([]float64, sh.m*sh.p)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range bm {
			bm[i] = rng.NormFloat64()
		}
		for _, avx := range kernelPaths() {
			b.Run(sh.name+"/"+kernelName[avx], func(b *testing.B) {
				defer func(was bool) { useAVX2 = was }(useAVX2)
				useAVX2 = avx
				var bT []float64
				mulNN(c, a, bm, sh.m, sh.p, sh.k, &bT)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mulNN(c, a, bm, sh.m, sh.p, sh.k, &bT)
				}
				b.ReportMetric(float64(sh.m*sh.p*sh.k)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "mac/ns")
			})
		}
	}
}
