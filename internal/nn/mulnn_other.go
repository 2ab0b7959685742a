//go:build !amd64

package nn

// haveAVX2 and haveAVX512 are false off amd64: every kernel takes its
// portable path, and none of the stubs below is ever called. Both tiles
// sit behind mulTiles, so it is the one stub they need.
const haveAVX2, haveAVX512 = false, false

const noAVX2 = "nn: AVX2 kernel selected on a non-amd64 build"

func mulTiles(c, a, b []float64, m4, p, k, ldb, ars, acs int) { panic(noAVX2) }

func transposeAVX2(dst, src *float64, rows8, cols4, rows, cols int) { panic(noAVX2) }

func reluAVX2(x *float64, n int) { panic(noAVX2) }

func reluDeltaAVX2(d, grad, y *float64, n int) { panic(noAVX2) }

func tanhDeltaAVX2(d, grad, y *float64, n int) { panic(noAVX2) }

func sumRowsAVX2(sum, d *float64, n, w int) { panic(noAVX2) }

func adamAVX2(w, grad, m, v *float64, n int, k *adamConsts) { panic(noAVX2) }
