// Fixed-point compilation of trained policies.
//
// Quantize compiles a float64 MLP into a QuantizedMLP: int16 weights, int32
// accumulators, and power-of-two activation scales chosen from a calibration
// sweep, with all per-layer rescaling folded into one integer multiply-shift.
// The compiled forward pass is branch-light, allocation-free, and fully
// deterministic (pure integer arithmetic plus a fixed tanh table), mirroring
// the in-kernel deployment of the original system (tcp_astraea.c runs the
// same policy shape in u32/u64 shift arithmetic).
//
// # Representation
//
// Inputs are quantized per feature: feature i is scaled by inScale[i] =
// 2^inputQBits / a_i, where a_i is the calibrated absolute maximum of that
// feature, and the compensating a_i factor is folded into the first layer's
// float weights before they are quantized. Every feature therefore spends
// the full int16 range on its own calibrated span, with 2x headroom before
// saturation.
//
// Hidden and output activations live in int16 with a per-layer Q-format
// chosen from calibrated ranges (2x margin, saturating beyond). A layer
// computes
//
//	acc  = Σ_i wq[o,i]·xq[i] + bq[o]            (int32, provably no wrap)
//	t    = (acc·mult + rnd) >> shift            (int64 requantization)
//	out  = act(sat16(t))                        (int16 lane)
//
// where mult/shift encode Sout/(sw·Sin) to 30 significant bits. ReLU is the
// branch-free mask v &^ (v>>31); Tanh is a 1025-entry Q12→Q14 interpolated
// lookup table covering [-8, 8] (beyond which tanh is 1 to within the
// output resolution).
//
// The multiply-accumulate work runs through one tiled kernel per tier over
// weights padded to 16-column × 4-row tiles, batched over samples
// (ForwardBatch; Forward is a batch of one): on the AVX2 tier (useAVX2,
// which the float kernels use too) VPMADDWD, sixteen int16×int16→int32
// products summed in pairs per instruction, with each group of four
// weight rows held in registers while the samples pass it two at a time,
// and the requantization below eight outputs per step in AVX2 as well; on
// the portable tier (other CPUs, other GOARCHes) a blocked-scalar Go loop.
// The int16 layout is what makes VPMADDWD applicable at all. Per sample
// on the paper's actor the fixed-point pass takes a fraction of the
// vector float64 forward's time, and a batch of them less again per
// sample (DESIGN.md §12 has the measurements).
//
// # Why the int32 accumulator cannot wrap
//
// The per-layer weight scale sw is capped so that the worst-case row sum —
// every input pinned at the int16 extreme 32768 — plus the quantized bias
// and rounding slack stays within int31:
//
//	32768·(sw·maxRowL1 + in/2) + sw·Sin·maxB + 1 ≤ 2^31 − 1
//
// (the in/2 term bounds per-weight rounding, the +1 the bias rounding).
// Quantize then checks the realized inequality Σ_i|wq[o,i]|·32768 +
// |bq[o]| ≤ 2^31−1 on every row of the int16 weights it produced, and
// refuses to return a net that breaks it. Quantize is the only way to build
// a QuantizedMLP, so every compiled net carries the guarantee: there is no
// serialized form to smuggle one in. Every int32 lane a kernel
// forms sums a column subset of one row, so the inequality bounds the
// lanes as well; that includes a VPMADDWD pair, whose two products of
// −32768·−32768 would wrap, and which the inequality rejects (a row
// holding two −32768 weights has mass 65536·32768 > 2^31−1).
package nn

import (
	"fmt"
	"math"
)

// inputQBits is the Q-format of quantized inputs in calibrated units: a
// feature at its calibrated maximum maps to 2^inputQBits = 16384, leaving
// 2x headroom in int16 before saturation.
const inputQBits = 14

// tanhQBits is the fixed Q-format of the tanh lookup argument: Q12 spans
// [-8, 8) across the int16 range, and tanh saturates to ±1 within output
// resolution outside it.
const tanhQBits = 12

// tanhOutBits is the Q-format of tanh outputs: Q14 represents ±1.0 exactly
// as ±16384 with interpolation headroom in int16.
const tanhOutBits = 14

const (
	int16Min = -32768
	int16Max = 32767
	// accBound is the inclusive |accumulator| budget: int32 values never
	// exceed it, so the int32 sum cannot wrap.
	accBound = math.MaxInt32 - 1
)

// tanhTab holds tanh sampled at 1024 steps of 1/64 across [-8, 8] in Q14;
// entry 1024 closes the final interpolation interval.
var tanhTab = func() [1025]int16 {
	var t [1025]int16
	for k := range t {
		x := -8.0 + float64(k)/64.0
		t[k] = int16(math.Round(math.Tanh(x) * (1 << tanhOutBits)))
	}
	return t
}()

// quantLayer is one compiled layer: offsets into the padded kernel arrays
// plus the precomputed requantization constants.
type quantLayer struct {
	in, out       int
	padIn, padOut int // kernel dims: in padded to 16 cols, out to 4 rows
	padSums       int // out padded to 8: sums per sample, epilogue width
	act           Activation
	kOff, kbOff   int   // offsets into the padded kernel weights and biases
	mult          int64 // requantization multiplier, ∈ [0, 2^30]
	rnd           int64 // rounding bias, 1 << (shift-1)
	shift         uint8 // requantization shift, ∈ [1, 62]
	outBits       int8  // Q-format of this layer's int16 output
	rq            requantConsts
}

// requantConsts are a layer's requantization constants in the form the
// AVX2 epilogue (requantQ15AVX2) broadcasts, all int64 for fixed offsets.
// That kernel has no 64-bit arithmetic shift and no 64-bit clamp, so:
//   - it shifts p + 2^62 logically and subtracts 2^(62−shift) after: p =
//     s·mult + rnd ∈ [−2^61, 2^62) for an int32 sum s, so p + 2^62 is
//     positive and below 2^63, and 2^62 divides evenly by 2^shift;
//   - it clamps s to [lo, hi] before the multiply, where hi is the least
//     sum whose output reaches 32767 and lo the greatest whose output
//     reaches −32768. f(s) = (s·mult + rnd) >> shift never decreases in s,
//     so the clamp leaves every saturated output saturated and every
//     other one unchanged, and in [lo, hi] f passes either int16 bound
//     by at most one step, mult/2^shift + 1 ≤ 2^29 + 1: it fits int32,
//     which the kernel's saturating int32→int16 pack needs.
//
// floor is −32768, or 0 for ReLU (the max with it is ReLU).
type requantConsts struct {
	mult, bias, unbias, shift, lo, hi, floor int64
}

// newRequantConsts derives l's epilogue constants. Without a multiplier
// every output is rnd >> shift = 0, and from shift 47 on |f| ≤ 2^62 >>
// 47 = 2^15: either way f fits int32 unclamped.
func newRequantConsts(l *quantLayer) requantConsts {
	k := requantConsts{
		mult: l.mult, bias: l.rnd + 1<<62, unbias: 1 << (62 - l.shift), shift: int64(l.shift),
		lo: math.MinInt32, hi: math.MaxInt32, floor: int16Min,
	}
	if l.act == ReLU {
		k.floor = 0
	}
	if l.mult > 0 && l.shift < 47 {
		top := int64(int16Max) << l.shift
		// f(s) ≥ 32767 ⟺ s·mult ≥ top − rnd; f(s) ≤ −32768 ⟺ s·mult < −(top + rnd).
		k.hi = min((top-l.rnd+l.mult-1)/l.mult, math.MaxInt32)
		k.lo = max(-((top+l.rnd)/l.mult)-1, math.MinInt32)
	}
	return k
}

// QuantizedMLP is the fixed-point compiled form of a trained MLP: padded
// int16 weights, int32 biases, and precomputed per-layer requantization
// constants. Forward runs in pure integer arithmetic with zero allocations.
//
// The compiled arrays are immutable after Quantize, so
// Clone shares them and allocates only scratch of its own; a QuantizedMLP
// is not safe for concurrent use, but clones evaluate independently.
type QuantizedMLP struct {
	quantNet

	// Scratch, per instance: activations and layer sums for rows samples,
	// grown by ForwardBatch up to quantBlock rows. Clone reads none of it,
	// so a server may clone a policy its evaluator is running.
	rows       int
	bufA, bufB []int16
	acc        []int32
	out        []float64
}

// quantNet is the compiled network: written once by Quantize, then only
// read, and shared by every clone.
type quantNet struct {
	layers  []quantLayer
	inScale []float64 // per-feature input quantization scale
	outInv  float64   // final dequantization factor, 2^-outBits of last layer
	kernelW []int16   // padded row-major weights fed to matmulQ15
	kernelB []int32   // biases, each layer's padded with zeros to padSums
	maxDim  int       // widest padded activation row, in int16s
	maxAcc  int       // widest padded layer output (padSums), in int32s
}

// quantBlock is how many samples ForwardBatch carries through the network
// together: each weight row is then read once per block, while the block's
// activations (≤ 16 × 256 int16s on the paper's actor) stay in L1.
const quantBlock = 16

// QuantizeOptions configures Quantize.
type QuantizeOptions struct {
	// Calibration supplies representative inputs used to size the
	// fixed-point ranges: per-feature input spans and per-layer activation
	// Q-formats. Every sample must have the network's input width. When
	// empty, a deterministic synthetic sweep over [-1,1] and [-8,8] is
	// used; callers that know the serving distribution (core does) should
	// pass real samples for tighter formats.
	Calibration [][]float64
}

// Quantize compiles m into its fixed-point form. m is read, not modified.
// The calibration sweep (opts.Calibration or a deterministic default) picks
// per-feature input scales and per-layer activation ranges with 2x
// saturation margin; weight scales are then capped so int32 accumulators
// provably cannot wrap (see the package comment for the inequality).
func Quantize(m *MLP, opts QuantizeOptions) (*QuantizedMLP, error) {
	if m == nil || len(m.Layers) == 0 {
		return nil, fmt.Errorf("nn: cannot quantize an empty model")
	}
	in := m.InDim()
	cal := opts.Calibration
	if len(cal) == 0 {
		cal = defaultCalibration(in)
	}
	for k, s := range cal {
		if len(s) != in {
			return nil, fmt.Errorf("nn: calibration sample %d has %d features, model wants %d", k, len(s), in)
		}
	}

	// Calibrated ranges: per-feature input maxima and per-layer output
	// maxima, from float forward passes.
	aIn := make([]float64, in)
	aOut := make([]float64, len(m.Layers))
	for _, s := range cal {
		for i, v := range s {
			if av := math.Abs(v); av > aIn[i] && !math.IsInf(av, 1) {
				aIn[i] = av
			}
		}
		m.Forward(s)
		for li := range m.Layers {
			for _, v := range m.acts[li+1] {
				if av := math.Abs(v); av > aOut[li] && !math.IsInf(av, 1) {
					aOut[li] = av
				}
			}
		}
	}

	q := &QuantizedMLP{quantNet: quantNet{inScale: make([]float64, in)}}
	// The canonical (row-major, unpadded) weights: dropped after finish.
	var weights []int16
	var biases []int32
	for i, a := range aIn {
		if a < 1e-9 {
			a = 1e-9 // dead feature: any scale works, avoid dividing by zero
		}
		q.inScale[i] = math.Ldexp(1, inputQBits) / a
	}

	// Compile layer by layer. Sin is the uniform scale of the current
	// layer's quantized input (a power of two by construction).
	sin := math.Ldexp(1, inputQBits)
	for li, l := range m.Layers {
		// Effective float weights: layer 0 folds the per-feature input
		// normalization (x_i quantized in units of a_i) into its columns.
		w := l.W
		if li == 0 {
			w = make([]float64, len(l.W))
			for o := 0; o < l.Out; o++ {
				for i := 0; i < l.In; i++ {
					w[o*l.In+i] = l.W[o*l.In+i] * math.Ldexp(1, inputQBits) / q.inScale[i]
				}
			}
		}

		var maxW, maxRowL1, maxB float64
		for o := 0; o < l.Out; o++ {
			var rowL1 float64
			for i := 0; i < l.In; i++ {
				av := math.Abs(w[o*l.In+i])
				rowL1 += av
				if av > maxW {
					maxW = av
				}
			}
			if rowL1 > maxRowL1 {
				maxRowL1 = rowL1
			}
		}
		for _, b := range l.B {
			if av := math.Abs(b); av > maxB {
				maxB = av
			}
		}

		// Weight scale: as large as int16 representation allows, capped so
		// the worst-case accumulator stays within int31 (no-wrap proof in
		// the package comment).
		sw := math.Inf(1)
		if maxW > 0 {
			sw = (int16Max - 1) / maxW
		}
		if den := 32768*maxRowL1 + sin*maxB; den > 0 {
			if lim := (float64(accBound) - 1 - 16384*float64(l.In)) / den; lim < sw {
				sw = lim
			}
		}
		if !(sw > 0) || math.IsInf(sw, 1) {
			sw = 1 // all-zero layer: representation is exact at any scale
		}

		wq := make([]int16, len(w))
		for i, v := range w {
			wq[i] = satRound16(v * sw)
		}
		bq := make([]int32, len(l.B))
		for o, b := range l.B {
			bq[o] = satRound32(b * sw * sin)
		}

		// Output representation and the requantization constants mapping
		// accumulator units (sw·Sin) onto it.
		var outBits int8
		var target float64
		if l.Act == Tanh {
			outBits = tanhOutBits
			target = math.Ldexp(1, tanhQBits) // LUT argument is Q12
		} else {
			outBits = chooseBits(2 * aOut[li])
			target = math.Ldexp(1, int(outBits))
		}
		mult, shift := requantParams(target / (sw * sin))

		q.layers = append(q.layers, quantLayer{
			in: l.In, out: l.Out, act: l.Act,
			mult: mult, rnd: int64(1) << (shift - 1), shift: shift,
			outBits: outBits,
		})
		weights = append(weights, wq...)
		biases = append(biases, bq...)
		sin = math.Ldexp(1, int(outBits))
	}

	if err := q.checkAccBounds(weights, biases); err != nil {
		return nil, err // unreachable by the scale cap; kept as a hard guard
	}
	q.finish(weights, biases)
	return q, nil
}

// finish derives the padded kernel layout, scratch buffers, and the output
// dequantization factor from the canonical weights, which it does not keep.
// The kernel consumes weights padded to 16-column × 4-row tiles; padding
// weights are zero, so whatever stale int16s sit in the padded tail of an
// activation row contribute exactly nothing.
func (q *QuantizedMLP) finish(weights []int16, biases []int32) {
	kernelLen, biasLen := 0, 0
	q.maxDim, q.maxAcc = 0, 0
	for i := range q.layers {
		l := &q.layers[i]
		l.padIn = (l.in + 15) &^ 15
		l.padOut = (l.out + 3) &^ 3
		l.padSums = (l.out + 7) &^ 7
		l.kOff, l.kbOff = kernelLen, biasLen
		kernelLen += l.padIn * l.padOut
		biasLen += l.padSums
		l.rq = newRequantConsts(l)
		q.maxDim = max(q.maxDim, l.padIn, (l.out+15)&^15)
		q.maxAcc = max(q.maxAcc, l.padSums)
	}
	q.kernelW = make([]int16, kernelLen)
	q.kernelB = make([]int32, biasLen)
	for _, l := range q.layers {
		for o := 0; o < l.out; o++ {
			copy(q.kernelW[l.kOff+o*l.padIn:], weights[o*l.in:(o+1)*l.in])
		}
		copy(q.kernelB[l.kbOff:], biases[:l.out])
		weights, biases = weights[l.in*l.out:], biases[l.out:]
	}
	q.outInv = math.Ldexp(1, -int(q.layers[len(q.layers)-1].outBits))
	q.scratch(1)
}

// scratch sizes the per-instance buffers for rows samples at a time.
func (q *QuantizedMLP) scratch(rows int) {
	q.rows = rows
	q.bufA = make([]int16, rows*q.maxDim)
	q.bufB = make([]int16, rows*q.maxDim)
	q.acc = make([]int32, rows*q.maxAcc)
	q.out = make([]float64, rows*q.OutDim())
}

// checkAccBounds verifies the realized no-wrap inequality for every output
// row of the canonical weights: Σ|wq|·32768 + |bq| ≤ 2^31−1. Quantize's
// weight-scale cap guarantees it; this checks what the rounding produced.
func (q *QuantizedMLP) checkAccBounds(weights []int16, biases []int32) error {
	for li, l := range q.layers {
		for o := 0; o < l.out; o++ {
			var sum int64
			for _, w := range weights[o*l.in : (o+1)*l.in] {
				if w < 0 {
					sum -= int64(w)
				} else {
					sum += int64(w)
				}
			}
			sum *= 32768
			b := int64(biases[o])
			if b < 0 {
				b = -b
			}
			if sum+b > math.MaxInt32 {
				return fmt.Errorf("nn: quantized layer %d row %d can overflow its accumulator (weight mass %d)", li, o, sum+b)
			}
		}
		weights, biases = weights[l.in*l.out:], biases[l.out:]
	}
	return nil
}

// InDim returns the input width.
func (q *QuantizedMLP) InDim() int { return q.layers[0].in }

// OutDim returns the output width.
func (q *QuantizedMLP) OutDim() int { return q.layers[len(q.layers)-1].out }

// NumLayers returns the layer count.
func (q *QuantizedMLP) NumLayers() int { return len(q.layers) }

// ParamBytes returns the byte footprint of the compiled parameters (int16
// weights + int32 biases), the number that decides cache residency under
// sharded serving.
func (q *QuantizedMLP) ParamBytes() (n int) {
	for _, l := range q.layers {
		n += 2*l.in*l.out + 4*l.out
	}
	return n
}

// Clone returns an independently evaluable copy sharing the immutable
// compiled arrays, with scratch of its own for one sample (ForwardBatch
// grows it). Use one clone per goroutine.
func (q *QuantizedMLP) Clone() *QuantizedMLP {
	c := &QuantizedMLP{quantNet: q.quantNet}
	c.scratch(1)
	return c
}

// Forward evaluates the compiled network on one sample: ForwardBatch(x, 1).
// The returned slice is scratch owned by the QuantizedMLP (valid until the
// next call); the pass performs no allocations. Inputs beyond 2x their
// calibrated range saturate; NaN quantizes to zero.
func (q *QuantizedMLP) Forward(x []float64) []float64 {
	return q.ForwardBatch(x, 1)
}

// ForwardBatch evaluates the n samples packed row-major in x ([n][InDim])
// and returns the [n][OutDim] outputs, scratch owned by the QuantizedMLP
// and valid until the next call. Every output is bitwise what Forward gives
// for its row: the sums are exact integer arithmetic, whatever the tiling.
// The samples go through the network quantBlock at a time; once the
// scratch has grown to a block (and the output to n rows), a pass
// allocates nothing.
func (q *QuantizedMLP) ForwardBatch(x []float64, n int) []float64 {
	in, outDim := q.InDim(), q.OutDim()
	if n < 1 || len(x) != n*in {
		panic(fmt.Sprintf("nn: quantized batch input has %d values, want %d rows of %d", len(x), n, in))
	}
	if rows := min(n, quantBlock); rows > q.rows {
		q.scratch(rows)
	}
	if cap(q.out) < n*outDim {
		q.out = make([]float64, n*outDim)
	}
	out := q.out[:n*outDim]
	for s := 0; s < n; s += quantBlock {
		rows := min(n-s, quantBlock)
		q.forwardBlock(x[s*in:(s+rows)*in], out[s*outDim:(s+rows)*outDim], rows)
	}
	return out
}

// forwardBlock runs rows ≤ q.rows samples through every layer, writing
// their outputs to out. A layer reads its input rows l.padIn int16s apart,
// forms its sums l.padSums int32s apart in q.acc, and writes its output
// rows 16-padded (the next layer's padIn) into the other buffer.
func (q *QuantizedMLP) forwardBlock(x, out []float64, rows int) {
	in := q.InDim()
	cur, nxt := q.bufA, q.bufB
	stride := q.layers[0].padIn
	for s := 0; s < rows; s++ {
		row := cur[s*stride : s*stride+in]
		for i, v := range x[s*in : (s+1)*in] {
			row[i] = satRound16(v * q.inScale[i])
		}
	}
	for li := range q.layers {
		l := &q.layers[li]
		// All multiply-accumulate work happens in the tiled int16×int16→
		// int32 kernel; every partial lane is bounded by its subset of the
		// row's L1 budget, so no intermediate can wrap (see checkAccBounds).
		matmulQ15(q.kernelW[l.kOff:l.kOff+l.padIn*l.padOut], cur, q.acc, l.padOut>>2, l.padIn, rows, l.padSums)
		stride = (l.out + 15) &^ 15
		q.requantize(l, nxt, stride, rows)
		cur, nxt = nxt, cur
	}
	outDim := q.OutDim()
	for s := 0; s < rows; s++ {
		for o, v := range cur[s*stride : s*stride+outDim] {
			out[s*outDim+o] = float64(v) * q.outInv
		}
	}
}

// matmulQ15 forms acc[s·accStride + r] = Σ_c w[r][c]·x[s][c] for n samples
// x (cols16 int16s apart) and rows4 groups of four weight rows: on the AVX2
// kernel where useAVX2 is set, on the portable one otherwise.
func matmulQ15(w, x []int16, acc []int32, rows4, cols16, n, accStride int) {
	if useAVX2 {
		matmulQ15Tiles(w, x, acc, rows4, cols16, n, accStride)
		return
	}
	matmulQ15Generic(w, x, acc, rows4, cols16, n, accStride)
}

// requantize maps layer l's sums for rows samples onto its int16 output
// activations, rows stride apart in dst: act(sat16(((acc + b)·mult + rnd)
// >> shift)). Where useAVX2 is set the AVX2 epilogue takes eight outputs
// at a time (and the tanh lookup follows it here); otherwise each output
// runs the formula as written, with the activation chosen once per layer.
func (q *QuantizedMLP) requantize(l *quantLayer, dst []int16, stride, rows int) {
	if useAVX2 {
		requantTiles(dst, q.acc, q.kernelB[l.kbOff:l.kbOff+l.padSums], l.padSums>>3, rows, stride, l.padSums, &l.rq)
		if l.act == Tanh {
			for s := 0; s < rows; s++ {
				d := dst[s*stride : s*stride+l.out]
				for o, v := range d {
					d[o] = int16(tanhQ12(int32(v)))
				}
			}
		}
		return
	}
	bias := q.kernelB[l.kbOff : l.kbOff+l.out]
	mult, rnd, shift := l.mult, l.rnd, l.shift&63
	for s := 0; s < rows; s++ {
		acc := q.acc[s*l.padSums:][:len(bias)]
		d := dst[s*stride:][:len(bias)]
		switch l.act {
		case ReLU:
			for o, a := range acc {
				t := min(max((int64(a+bias[o])*mult+rnd)>>shift, int16Min), int16Max)
				d[o] = int16(t &^ (t >> 63))
			}
		case Tanh:
			for o, a := range acc {
				t := min(max((int64(a+bias[o])*mult+rnd)>>shift, int16Min), int16Max)
				d[o] = int16(tanhQ12(int32(t)))
			}
		default:
			for o, a := range acc {
				d[o] = int16(min(max((int64(a+bias[o])*mult+rnd)>>shift, int16Min), int16Max))
			}
		}
	}
}

// tanhQ12 evaluates tanh on a Q12 argument (int16 range spans [-8, 8)) by
// linear interpolation over tanhTab, returning Q14.
func tanhQ12(v int32) int32 {
	u := v + 32768 // 0..65535
	idx := u >> 6  // 0..1023
	frac := u & 63
	lo := int32(tanhTab[idx])
	return lo + (int32(tanhTab[idx+1])-lo)*frac>>6
}

// satRound16 rounds to the nearest int16, ties away from zero (as
// math.Round), saturating at the type bounds and mapping NaN to zero.
// In range it adds the largest double below ½, signed like v, and
// truncates: below a tie the sum stays short of the next integer by more
// than half its spacing, and at a tie it rounds up onto it, so the result
// is math.Round's without its branches on the exponent.
func satRound16(v float64) int16 {
	if !(v > float64(int16Min)) { // also catches NaN
		if v != v {
			return 0
		}
		return int16Min
	}
	if v > float64(int16Max) {
		return int16Max
	}
	return int16(v + math.Copysign(0.49999999999999994, v))
}

// satRound32 rounds to the nearest int32, saturating one short of the type
// bounds (the bias budget in the accumulator inequality).
func satRound32(v float64) int32 {
	if !(v > float64(-accBound)) {
		if v != v {
			return 0
		}
		return -accBound
	}
	if v > float64(accBound) {
		return accBound
	}
	return int32(math.Round(v))
}

// chooseBits picks the largest Q-format whose span covers amax, clamped to
// Q−16..Q15.
func chooseBits(amax float64) int8 {
	if !(amax > 0) {
		return 15
	}
	b := int(math.Floor(math.Log2(float64(int16Max) / amax)))
	if b > 15 {
		b = 15
	}
	if b < -16 {
		b = -16
	}
	return int8(b)
}

// requantParams encodes ratio as mult/2^shift with mult ∈ [0, 2^30] and
// shift ∈ [1, 62], the fixed-point form of the accumulator→activation
// rescaling. Degenerate ratios (non-positive, NaN, or ≥ 2^29, which only a
// pathological net can produce) saturate deterministically; the int16 lane
// clamp bounds the damage.
func requantParams(ratio float64) (int64, uint8) {
	if !(ratio > 0) || math.IsInf(ratio, 1) {
		return 0, 1
	}
	frac, exp := math.Frexp(ratio) // ratio = frac·2^exp, frac ∈ [0.5, 1)
	shift := 30 - exp
	if shift < 1 {
		return math.MaxInt32, 1
	}
	mult := int64(math.Round(frac * (1 << 30)))
	for shift > 62 {
		mult >>= 1
		shift--
	}
	if mult == 0 {
		return 0, 1
	}
	return mult, uint8(shift)
}

// matmulQ15Generic is the portable tiled int16 kernel: rows4 groups of four
// padded rows against n padded activation rows (cols16 apart), each
// sample's 4·rows4 int32 sums accStride apart. It is the reference the
// AVX2 kernel is differentially tested against (both are exact integer arithmetic, so
// they agree bitwise), and the kernel of the portable tier. The four row
// accumulators share each loaded activation, so the scalar loop runs at
// roughly one load per multiply instead of two.
func matmulQ15Generic(w, x []int16, acc []int32, rows4, cols16, n, accStride int) {
	for s := 0; s < n; s++ {
		xx := x[s*cols16 : (s+1)*cols16]
		sums := acc[s*accStride : s*accStride+4*rows4]
		for g := range rows4 {
			sums[4*g], sums[4*g+1], sums[4*g+2], sums[4*g+3] = dot4Q15(w[4*g*cols16:], xx)
		}
	}
}

// dot4Q15 returns the dot products of x with the four rows of w, len(x)
// apart. It is its own function so that the four sums live in registers.
func dot4Q15(w, x []int16) (a0, a1, a2, a3 int32) {
	n := len(x)
	r0, r1, r2, r3 := w[:n], w[n:][:n], w[2*n:][:n], w[3*n:][:n]
	for i, v := range x {
		xv := int32(v)
		a0 += int32(r0[i]) * xv
		a1 += int32(r1[i]) * xv
		a2 += int32(r2[i]) * xv
		a3 += int32(r3[i]) * xv
	}
	return a0, a1, a2, a3
}

// defaultCalibration synthesizes a deterministic input sweep for callers
// that do not know the serving distribution: xorshift-uniform samples at
// unit and 8x amplitude. core passes real sampled states instead.
func defaultCalibration(in int) [][]float64 {
	const n = 288
	s := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11) / (1 << 53)
	}
	cal := make([][]float64, n)
	for k := range cal {
		amp := 1.0
		if k%4 == 3 {
			amp = 8
		}
		row := make([]float64, in)
		for i := range row {
			row[i] = (2*next() - 1) * amp
		}
		cal[k] = row
	}
	return cal
}
