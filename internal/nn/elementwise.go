package nn

// The elementwise passes of the batch path. Each runs its AVX2 kernel
// (elem_amd64.s) over whole groups of four values when useAVX2 is set and
// the scalar loop below over the rest, which is everything on the portable
// path. Lane for lane the kernels do the scalar loop's operations, so the
// two paths give the same bits.

// vecLen is how many of n values the AVX2 elementwise kernels take: the
// whole 4-lane groups when useAVX2 is set, none otherwise.
func vecLen(n int) int {
	if !useAVX2 {
		return 0
	}
	return n &^ 3
}

// relu applies ReLU to y in place, as `if v < 0 { v = 0 }`: a negative
// value becomes +0, while −0 and NaN pass through unchanged.
func relu(y []float64) {
	i := vecLen(len(y))
	if i > 0 {
		reluAVX2(&y[0], i)
	}
	for ; i < len(y); i++ {
		if y[i] < 0 {
			y[i] = 0
		}
	}
}

// actDelta sets delta = grad ∘ act′(y), act′ taken from the layer's output
// y, by the same grad·act′ product the per-sample Backward forms. The
// activation is switched on once per call, not once per value. delta may
// alias grad.
func actDelta(act Activation, delta, grad, y []float64) {
	grad, y = grad[:len(delta)], y[:len(delta)]
	i := vecLen(len(delta))
	switch act {
	case ReLU:
		if i > 0 {
			reluDeltaAVX2(&delta[0], &grad[0], &y[0], i)
		}
		for ; i < len(delta); i++ {
			delta[i] = grad[i] * ReLU.derivFromOut(y[i])
		}
	case Tanh:
		if i > 0 {
			tanhDeltaAVX2(&delta[0], &grad[0], &y[0], i)
		}
		for ; i < len(delta); i++ {
			delta[i] = grad[i] * Tanh.derivFromOut(y[i])
		}
	default: // Linear: act′ = 1, and grad·1 is grad
		copy(delta, grad)
	}
}

// sumRows adds the n ≥ 1 rows of d, row-major [n][len(g)], into g: g[o] +=
// Σ_s d[s][o], each sum continued from g[o] in ascending s — the order n
// per-sample Backward calls add their gB terms in. d is read in place.
func sumRows(g, d []float64, n int) {
	w := len(g)
	d = d[:n*w]
	if useAVX2 {
		sumRowsAVX2(&g[0], &d[0], n, w)
		return
	}
	for s := 0; s < n; s++ {
		for o, v := range d[s*w : (s+1)*w] {
			g[o] += v
		}
	}
}
