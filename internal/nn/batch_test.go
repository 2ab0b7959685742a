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
// outputs, gW, gB and dX, under both flag settings, on every kernel tier
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

// forEachKernel runs fn as a subtest per kernel tier (portable, avx2,
// avx512), with the package selectors set accordingly. A tier this machine
// cannot run is skipped with the reason logged, so it never passes
// silently. Subtests under it must not be parallel: the selectors are
// process-wide.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, name := range tierNames {
		t.Run(name, func(t *testing.T) {
			restore, skip := useTier(name)
			if restore == nil {
				t.Skip(skip)
			}
			defer restore()
			fn(t)
		})
	}
}

// benchEachKernel is forEachKernel for benchmarks, over the named tiers,
// each sub-benchmark named prefix + the tier.
func benchEachKernel(b *testing.B, prefix string, tiers []string, fn func(b *testing.B)) {
	for _, name := range tiers {
		b.Run(prefix+name, func(b *testing.B) {
			restore, skip := useTier(name)
			if restore == nil {
				b.Skip(skip)
			}
			defer restore()
			fn(b)
		})
	}
}

// guard is the bit pattern written past the end of every kernel output
// (and, for the bare tiles, after every c row and into every row they do
// not own): a NaN no arithmetic here produces, so any store that lands
// on it shows.
const guard = 0x7ff8_dead_beef_0001

// guarded returns vals followed by guards guard words, and the check that
// those words are still intact.
func guarded(vals []float64, guards int) ([]float64, func(t *testing.T, what string)) {
	buf := append(append(make([]float64, 0, len(vals)+guards), vals...), make([]float64, guards)...)
	for i := len(vals); i < len(buf); i++ {
		buf[i] = math.Float64frombits(guard)
	}
	return buf, func(t *testing.T, what string) {
		t.Helper()
		for i := len(vals); i < len(buf); i++ {
			if math.Float64bits(buf[i]) != guard {
				t.Fatalf("%s: guard word %d after the output overwritten with %v", what, i-len(vals), buf[i])
			}
		}
	}
}

// transposed returns the rows×cols row-major x as cols×rows.
func transposed(x []float64, rows, cols int) []float64 {
	xt := make([]float64, len(x))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			xt[c*rows+r] = x[r*cols+c]
		}
	}
	return xt
}

// TestTransposeBitwise pins transpose, whose AVX2 path moves 8×4 blocks in
// registers, to the plain double loop for every rows mod 8 and cols mod 4
// remainder, with guard words after the output.
func TestTransposeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	forEachKernel(t, func(t *testing.T) {
		for rows := 1; rows <= 17; rows++ {
			for cols := 1; cols <= 13; cols++ {
				src := make([]float64, rows*cols)
				for i := range src {
					src[i] = rng.NormFloat64()
				}
				buf, intact := guarded(make([]float64, rows*cols), 4)
				got := transpose(buf[:rows*cols], src, rows, cols)
				what := fmt.Sprintf("transpose %d×%d", rows, cols)
				bitsEqual(t, what, got, transposed(src, rows, cols))
				intact(t, what)
			}
		}
	})
}

// TestMulNNMatchesScalarBitwise pins the three products — mulNN (a·b),
// mulNT (a·bᵀ) and mulTN (aᵀ·b) — to the plain triple loop, as IEEE-754 bit
// patterns, for m 1..17 and p 1..33 (on the AVX-512 tier: 8-row blocks, the
// 4-row hand-off to the ymm tile, scalar rows, whole 16-column blocks and
// tails of t ≤ 8 and t > 8 columns; on the AVX2 tier every m mod 4 and p
// mod 8), k in {1, 2, 53, 192}, and a non-zero starting c. Operands span
// several binades, so a reordered sum or a fused multiply-add changes the
// bits. Guard words after c catch a store past the end. On the assembly
// tiers the bare tiles are also run (mulTiles), reading a row-major and in
// place as aᵀ, with b and c rows padded by guard words and the rows past
// its m4 guarded, which catches a tile or its masked column tail writing
// past its columns or its rows.
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
	g := math.Float64frombits(guard)
	forEachKernel(t, func(t *testing.T) {
		var s1, s2 []float64
		for _, k := range []int{1, 2, 53, 192} {
			for m := 1; m <= 17; m++ {
				for p := 1; p <= 33; p++ {
					a, b, c0 := fill(m*k), fill(k*p), fill(m*p)
					aT, bT := transposed(a, m, k), transposed(b, k, p)
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
					for _, form := range []struct {
						name string
						run  func(c []float64)
					}{
						{"mulNN", func(c []float64) { mulNN(c, a, b, m, p, k, &s1) }},
						{"mulNT", func(c []float64) { mulNT(c, a, bT, m, p, k, &s1) }},
						{"mulTN", func(c []float64) { mulTN(c, aT, b, m, p, k, &s1, &s2) }},
					} {
						buf, intact := guarded(c0, guards)
						form.run(buf[:m*p])
						what := fmt.Sprintf("%s m=%d p=%d k=%d: c", form.name, m, p, k)
						bitsEqual(t, what, buf[:m*p], want)
						intact(t, what)
					}

					m4 := m - m%4
					if !useAVX2 || m4 == 0 {
						continue
					}
					ld := p + guards
					bp := make([]float64, k*ld)
					for i := range bp {
						bp[i] = g
						if q := i % ld; q < p {
							bp[i] = b[i/ld*p+q]
						}
					}
					for _, op := range []struct {
						name     string
						a        []float64
						ars, acs int
					}{{"a", a, k, 1}, {"aᵀ in place", aT, 1, m}} {
						cp := make([]float64, m*ld)
						for i := range cp {
							cp[i] = g
							if r, q := i/ld, i%ld; r < m4 && q < p {
								cp[i] = c0[r*p+q]
							}
						}
						mulTiles(cp, op.a, bp, m4, p, k, ld, op.ars, op.acs)
						what := fmt.Sprintf("tiles on %s, m=%d p=%d k=%d", op.name, m, p, k)
						for i, v := range cp {
							if r, q := i/ld, i%ld; r < m4 && q < p {
								if math.Float64bits(v) != math.Float64bits(want[r*p+q]) {
									t.Fatalf("%s: cell [%d][%d] = %#x, want %#x", what, r, q, math.Float64bits(v), math.Float64bits(want[r*p+q]))
								}
							} else if math.Float64bits(v) != guard {
								t.Fatalf("%s: wrote outside its cells at [%d][%d]", what, r, q)
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkMulNN prices the three products of the paper's widest layer
// (256→128) at the paper's batch size through the entry points
// BackwardBatch and ForwardBatch call, on each tier this machine runs, in
// multiply-adds per nanosecond: forward Y += X·Wᵀ (mulNT, its transpose of
// W included), paramGrad gW += Δᵀ·X (mulTN, Δ read in place on the AVX2
// path) and inputGrad dX += Δ·W (mulNN). The portable figures include their
// transposes.
func BenchmarkMulNN(b *testing.B) {
	const n, in, out = 192, 256, 128
	rng := rand.New(rand.NewSource(1))
	fill := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	x, w, delta := fill(n*in), fill(out*in), fill(n*out)
	y, gW, dX := make([]float64, n*out), make([]float64, out*in), make([]float64, n*in)
	var s1, s2 []float64
	for _, sh := range []struct {
		name string
		run  func()
	}{
		{"forward", func() { mulNT(y, x, w, n, out, in, &s1) }},
		{"paramGrad", func() { mulTN(gW, delta, x, out, in, n, &s1, &s2) }},
		{"inputGrad", func() { mulNN(dX, delta, w, n, in, out, &s1) }},
	} {
		benchEachKernel(b, sh.name+"/", tierNames[:], func(b *testing.B) {
			sh.run()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.run()
			}
			b.ReportMetric(float64(n*in*out)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "mac/ns")
		})
	}
}
