package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ordinary is a value over several binades.
func ordinary(rng *rand.Rand) float64 {
	return rng.NormFloat64() * math.Ldexp(1, rng.Intn(21)-10)
}

// specialValue is one of the values a sum must carry through bit for bit:
// NaN, ±Inf, ±0 or a subnormal of either sign.
func specialValue(rng *rand.Rand) float64 {
	sub := math.Float64frombits(1 + rng.Uint64()%(1<<52-1))
	return []float64{randomNaN(rng), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, sub, -sub}[rng.Intn(7)]
}

// randomNaN is a quiet NaN with a random sign and payload.
func randomNaN(rng *rand.Rand) float64 {
	return math.Float64frombits(0x7ff8_0000_0000_0000 | rng.Uint64()&(1<<63|1<<51-1))
}

// sprinkle overwrites about one in every rate values of v, at least one,
// with special values.
func sprinkle(rng *rand.Rand, v []float64, rate int) {
	for k := 0; k <= len(v)/rate; k++ {
		v[rng.Intn(len(v))] = specialValue(rng)
	}
}

// portableForward is m.Forward(x) on the portable tier, the reference every
// tier (the portable one included) is compared against, whatever subset of
// them a -run filter selects.
func portableForward(m *MLP, x []float64) []float64 {
	restore, _ := useTier("portable")
	defer restore()
	return append([]float64(nil), m.Forward(x)...)
}

// TestForwardMatchesPortableBitwise is the property behind the per-sample
// kernel: on every tier, Forward gives the portable Dense.forward's bits,
// for random layer shapes with In and Out in [1, 300] (non-multiples of 4,
// 8 and 16 included, and the edges around them), all three activations,
// and weights, biases and inputs that include NaN (of random payloads),
// ±Inf, ±0 and subnormals. Special values are rare enough that many sums stay finite,
// so a reordered or unfused term still shows in the low bits.
func TestForwardMatchesPortableBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	shapes := [][2]int{
		{1, 1}, {3, 5}, {4, 4}, {7, 9}, {8, 8}, {9, 7}, {12, 12}, {15, 17},
		{16, 16}, {17, 33}, {31, 32}, {32, 31}, {33, 65}, {4, 300}, {300, 4},
		{40, 256}, {256, 128}, {128, 64}, {64, 1}, {300, 300},
	}
	for len(shapes) < 60 {
		shapes = append(shapes, [2]int{1 + rng.Intn(300), 1 + rng.Intn(300)})
	}
	acts := []Activation{Linear, ReLU, Tanh}
	finite, total := 0, 0
	for si, sh := range shapes {
		in, out := sh[0], sh[1]
		act := acts[si%len(acts)]
		m := NewMLP(rng, act, act, in, out)
		l := m.Layers[0]
		x := make([]float64, in)
		for _, v := range [][]float64{l.W, l.B, x} {
			for i := range v {
				v[i] = ordinary(rng)
			}
		}
		// About one weight per row and one bias in eight is special, so
		// most outputs meet one. A non-finite input reaches every output,
		// so only every fourth shape gets special inputs.
		sprinkle(rng, l.W, in)
		sprinkle(rng, l.B, 8)
		if si%4 == 0 {
			sprinkle(rng, x, 64)
		}
		want := portableForward(m, x)
		forEachKernel(t, func(t *testing.T) {
			bitsEqual(t, fmt.Sprintf("%d→%d %v Forward", in, out, act), m.Forward(x), want)
		})
		for _, v := range want {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				finite++
			}
		}
		total += len(want)
	}
	// The bitwise check has teeth only on finite sums.
	if finite < total/3 {
		t.Fatalf("only %d of %d outputs finite: the draw checks too little arithmetic", finite, total)
	}
	t.Logf("%d of %d outputs finite", finite, total)
}

// TestForwardNaNOperandOrder: where both factors of a term are NaN, the
// sum carries the payload of the multiply-add's first factor, so the
// kernel must put W where math.FMA(W[o][i], x[i], s) does. A later term
// of ordinary values passes the NaN on unchanged, so each column j gets
// its own pass, with x[j] and column j of W NaN of distinct payloads and
// every other value ordinary; every column position within a block, and
// the columns the Go tail continues, are covered.
func TestForwardNaNOperandOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, sh := range [][2]int{{16, 16}, {13, 12}, {40, 32}} {
		in, out := sh[0], sh[1]
		m := NewMLP(rng, Linear, Linear, in, out)
		l := m.Layers[0]
		for j := 0; j < in; j++ {
			x := make([]float64, in)
			for i := range x {
				x[i] = ordinary(rng)
			}
			for i := range l.W {
				l.W[i] = ordinary(rng)
			}
			x[j] = randomNaN(rng)
			for o := 0; o < out; o++ {
				l.W[o*in+j] = randomNaN(rng)
			}
			want := portableForward(m, x)
			forEachKernel(t, func(t *testing.T) {
				bitsEqual(t, fmt.Sprintf("%d→%d, NaN column %d", in, out, j), m.Forward(x), want)
			})
		}
	}
}

// TestGemvTilesStayInBounds runs the bare kernel on 1 to 28 blocks of
// rows (up to seven groups of four, and 0–3 single blocks after) and 1–5
// column steps, against the scalar sums, with guard words after y and
// after every W row's columns the kernel owns: a kernel that reads past
// its columns would fold a NaN guard into a sum, and one that writes past
// its outputs overwrites a guard after y.
func TestGemvTilesStayInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	g := math.Float64frombits(guard)
	forEachKernel(t, func(t *testing.T) {
		if !useAVX2 {
			t.Skip("the portable tier has no per-sample kernel")
		}
		for o := 4; o <= 7*4*4; o += 4 {
			for n := 4; n <= 5*4; n += 4 {
				in := n + 3 // pad each row with guards the kernel must not read
				w := make([]float64, o*in)
				for i := range w {
					w[i] = g
					if i%in < n {
						w[i] = rng.NormFloat64()
					}
				}
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				y0 := make([]float64, o)
				for i := range y0 {
					y0[i] = rng.NormFloat64()
				}
				want := make([]float64, o)
				for r := range want {
					s := y0[r]
					for i := 0; i < n; i++ {
						s = math.FMA(w[r*in+i], x[i], s)
					}
					want[r] = s
				}
				buf, intact := guarded(y0, 8)
				gemvTiles(buf, w, x, o, n, in)
				what := fmt.Sprintf("gemvTiles o=%d n=%d", o, n)
				bitsEqual(t, what, buf[:o], want)
				intact(t, what)
			}
		}
	})
}

// BenchmarkForward prices one per-sample Forward of the paper's actor on
// each tier, in multiply-adds per nanosecond.
func BenchmarkForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, ReLU, Tanh, 40, 256, 128, 64, 1)
	x := make([]float64, 40)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	macs := 0
	for _, l := range m.Layers {
		macs += l.In * l.Out
	}
	benchEachKernel(b, "", tierNames[:], func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Forward(x)
		}
		b.ReportMetric(float64(macs)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "mac/ns")
	})
}
