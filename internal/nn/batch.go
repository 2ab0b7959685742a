package nn

import "fmt"

// Batch-major evaluation: a minibatch of n samples is one row-major
// [n][width] matrix per layer, and each Dense layer is three matrix
// products — forward Y = act(b + X·Wᵀ), weight gradient gW += Δᵀ·X, input
// gradient dX = Δ·W — one per kernel entry point: mulNT (c += a·bᵀ), mulTN
// (c += aᵀ·b) and mulNN (c += a·b). On the AVX2 path all three run on the
// same assembly tiles (mulTiles), whose b operand is laid out with the
// summed index as its rows, so the forward pass transposes W into scratch
// for it (O(In·Out) against the product's O(n·In·Out)); gW reads Δ and X
// in place, and so does gB, which sums Δ down its rows.
//
// Summation-order contract: every individual sum is taken in exactly the
// order the per-sample Forward/Backward take it — over inputs i ascending
// from the bias for a forward output, over samples s ascending from the
// accumulator's current value for gW and gB, over outputs o ascending from
// zero for dX — with no term skipped and no fused multiply-add. The kernels
// only interleave sums that never mix, so ForwardBatch/BackwardBatch are
// bitwise identical to looping Forward/Backward over the rows.

// ForwardBatch runs the n samples packed row-major in x ([n][InDim])
// through the network and returns the [n][OutDim] outputs. The result is
// scratch owned by the MLP, valid until the next ForwardBatch; x is
// retained, not copied, and must stay unmodified until the matching
// BackwardBatch has returned.
func (m *MLP) ForwardBatch(x []float64, n int) []float64 {
	if n < 1 || len(x) != n*m.InDim() {
		panic(fmt.Sprintf("nn: batch input has %d values, want %d rows of %d", len(x), n, m.InDim()))
	}
	if m.bacts == nil {
		m.bacts = make([][]float64, len(m.Layers)+1)
		m.bgrads = make([][]float64, len(m.Layers)+1)
	}
	m.bn = n
	m.bacts[0] = x
	for i, l := range m.Layers {
		y := sized(m.bacts[i+1], n*l.Out)
		m.bacts[i+1] = y
		for s := 0; s < n; s++ {
			copy(y[s*l.Out:(s+1)*l.Out], l.B)
		}
		mulNT(y, m.bacts[i], l.W, n, l.Out, l.In, &m.trans)
		switch l.Act {
		case Linear:
		case ReLU:
			relu(y)
		default:
			for k, v := range y {
				y[k] = l.Act.apply(v)
			}
		}
	}
	return m.bacts[len(m.Layers)]
}

// BackwardBatch backpropagates dOut ([n][OutDim], dLoss/dOutput per sample)
// through the last ForwardBatch. With accumulate, parameter gradients are
// added to the accumulators in sample order, as n Backward calls would;
// without it they are left untouched (a caller that only wants dLoss/dInput
// through a frozen network). With needInput it returns dLoss/dInput as
// [n][InDim] scratch valid until the next BackwardBatch; without it the
// first layer's input gradient is not computed and the result is nil.
func (m *MLP) BackwardBatch(dOut []float64, accumulate, needInput bool) []float64 {
	n := m.bn
	if len(dOut) != n*m.OutDim() {
		panic(fmt.Sprintf("nn: batch output gradient has %d values, want %d rows of %d", len(dOut), n, m.OutDim()))
	}
	grad := dOut
	for li := len(m.Layers) - 1; li >= 0; li-- {
		l := m.Layers[li]
		// Δ = grad ∘ act'(out). Below the top layer grad already lives in
		// this slot (the layer above wrote its dX there), so the product is
		// taken in place; dOut itself is never written.
		delta := sized(m.bgrads[li+1], n*l.Out)
		m.bgrads[li+1] = delta
		actDelta(l.Act, delta, grad, m.bacts[li+1])
		if accumulate {
			sumRows(l.gB, delta, n)
			mulTN(l.gW, delta, m.bacts[li], l.Out, l.In, n, &m.trans, &m.bT)
		}
		if li == 0 && !needInput {
			return nil
		}
		grad = sized(m.bgrads[li], n*l.In)
		m.bgrads[li] = grad
		clear(grad)
		mulNN(grad, delta, l.W, n, l.In, l.Out, &m.bT)
	}
	return grad
}

// sized returns buf resliced to n values, reallocating only when its
// capacity is short: a ragged last minibatch reuses the full-size scratch.
func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// transpose writes the rows×cols row-major src into dst as cols×rows,
// growing dst if needed, and returns it. Where useAVX2 is set, the 8×4
// blocks covering the first rows - rows mod 8 rows and cols - cols mod 4
// columns run in assembly, cache-blocked (transposeAVX2); the rest, and
// everything on the portable path, one dst row at a time here.
func transpose(dst, src []float64, rows, cols int) []float64 {
	dst, src = sized(dst, rows*cols), src[:rows*cols]
	r8, c4 := 0, 0
	if useAVX2 && rows >= 8 && cols >= 4 {
		r8, c4 = rows&^7, cols&^3
		transposeAVX2(&dst[0], &src[0], r8, c4, rows, cols)
	}
	for c := 0; c < cols; c++ {
		r0 := r8
		if c >= c4 {
			r0 = 0
		}
		col := dst[c*rows : (c+1)*rows]
		for r := r0; r < rows; r++ {
			col[r] = src[r*cols+c]
		}
	}
	return dst
}

// useAVX2 selects the kernels: the AVX2 assembly where the CPU has it
// (haveAVX2, read once per process), the portable Go otherwise. useAVX512,
// set only with useAVX2, puts the zmm tile under mulTiles. Only tests
// change them (useTier), to run every tier on one machine.
var useAVX2, useAVX512 = haveAVX2, haveAVX512

// The three products. Each adds to c, m×p row-major: c[r][q] += Σ_j
// A[r][j]·B[j][q] over k terms. Each sum starts from c[r][q] and adds its
// products one at a time in ascending j, each rounded before the add, so
// every path gives the same bits. On the AVX2 path mulTiled runs them; the
// portable path transposes what mulNTPortable needs into scratch (grown as
// needed).

// mulNN adds a·b to c, for a m×k and b k×p.
func mulNN(c, a, b []float64, m, p, k int, bT *[]float64) {
	if !useAVX2 {
		*bT = transpose(*bT, b, k, p)
		mulNTPortable(c, a, *bT, m, p, k)
		return
	}
	mulTiled(c, a, b, m, p, k, k, 1)
}

// mulNT adds a·bᵀ to c, for a m×k and b p×k. The tiles take bᵀ into
// bT.
func mulNT(c, a, b []float64, m, p, k int, bT *[]float64) {
	if !useAVX2 {
		mulNTPortable(c, a, b, m, p, k)
		return
	}
	*bT = transpose(*bT, b, p, k)
	mulTiled(c, a, *bT, m, p, k, k, 1)
}

// mulTN adds aᵀ·b to c, for a k×m and b k×p. The tiles read aᵀ[r][j]
// straight out of a; the portable path takes aᵀ into aT for mulNN.
func mulTN(c, a, b []float64, m, p, k int, aT, bT *[]float64) {
	if !useAVX2 {
		*aT = transpose(*aT, a, k, m)
		mulNN(c, *aT, b, m, p, k, bT)
		return
	}
	mulTiled(c, a, b, m, p, k, 1, m)
}

// mulTiled adds A·b to c on the AVX2 path, where A[r][j] = a[r·ars+j·acs].
// The assembly covers every column of the first m - m mod 4 rows; the last
// m mod 4 rows run here one at a time, j-major: each sum still takes its
// terms in ascending j, and b is read a row at a time.
func mulTiled(c, a, b []float64, m, p, k, ars, acs int) {
	m4 := m - m%4
	if m4 > 0 {
		mulTiles(c, a, b, m4, p, k, p, ars, acs)
	}
	for r := m4; r < m; r++ {
		cr := c[r*p : (r+1)*p]
		for j := 0; j < k; j++ {
			u := a[r*ars+j*acs]
			for q, v := range b[j*p : (j+1)*p] {
				cr[q] += u * v
			}
		}
	}
}

// mulNTPortable adds a·bᵀ to c in pure Go: c[r][q] += Σ_j a[r][j]·b[q][j],
// for a m×k, b p×k and c m×p, all row-major. Each sum starts from c[r][q]
// and adds its k products one at a time in ascending j — the order a
// scalar dot product takes — so only how many sums are in flight differs.
func mulNTPortable(c, a, b []float64, m, p, k int) {
	m3, p2 := m-m%3, p-p%2
	for r := 0; r < m3; r += 3 {
		a0, a1, a2 := a[r*k:(r+1)*k], a[(r+1)*k:(r+2)*k], a[(r+2)*k:(r+3)*k]
		c0, c1, c2 := c[r*p:(r+1)*p], c[(r+1)*p:(r+2)*p], c[(r+2)*p:(r+3)*p]
		for q := 0; q < p2; q += 2 {
			c0[q], c0[q+1], c1[q], c1[q+1], c2[q], c2[q+1] = dot3x2(
				a0, a1, a2, b[q*k:(q+1)*k], b[(q+1)*k:(q+2)*k],
				c0[q], c0[q+1], c1[q], c1[q+1], c2[q], c2[q+1])
		}
	}
	// What the 3×2 tiles do not cover — an odd last column and up to two
	// last rows — one plain dot product at a time.
	for r := 0; r < m; r++ {
		q := p2
		if r >= m3 {
			q = 0
		}
		ar := a[r*k : (r+1)*k]
		for ; q < p; q++ {
			bq := b[q*k : (q+1)*k]
			s := c[r*p+q]
			for j, u := range ar {
				s += u * bq[j]
			}
			c[r*p+q] = s
		}
	}
}

// dot3x2 continues the six running sums s_rq += Σ_j a_r[j]·b_q[j] of three
// a rows against two b rows. Six independent accumulator chains hide the
// floating-point add latency a single dot product is bound by, and six sums
// with their six products are what fits the register file; it is a function
// of its own so the loop's five pointers and counter stay in registers too.
func dot3x2(a0, a1, a2, b0, b1 []float64, s00, s01, s10, s11, s20, s21 float64) (_, _, _, _, _, _ float64) {
	// Equal lengths let the compiler drop the bounds checks in the loop.
	a1, a2, b0, b1 = a1[:len(a0)], a2[:len(a0)], b0[:len(a0)], b1[:len(a0)]
	for j, u := range a0 {
		v, w := a1[j], a2[j]
		x, y := b0[j], b1[j]
		s00 += u * x
		s01 += u * y
		s10 += v * x
		s11 += v * y
		s20 += w * x
		s21 += w * y
	}
	return s00, s01, s10, s11, s20, s21
}
