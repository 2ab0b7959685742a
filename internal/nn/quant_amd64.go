//go:build amd64

package nn

// matmulQ15Tiles runs matmulQ15 on the AVX2 kernel (quant_amd64.s).
func matmulQ15Tiles(w, x []int16, acc []int32, rows4, cols16, n, accStride int) {
	// The kernel trusts its arguments: touch the last value it reads or
	// writes in each operand, so a short slice panics here instead.
	_, _, _ = w[4*rows4*cols16-1], x[n*cols16-1], acc[(n-1)*accStride+4*rows4-1]
	matmulQ15AVX2(&w[0], &x[0], &acc[0], rows4, cols16, n, 4*accStride)
}

// requantTiles runs the layer epilogue on the AVX2 kernel (quant_amd64.s)
// over groups8 groups of eight outputs for each of rows samples.
func requantTiles(dst []int16, acc, bias []int32, groups8, rows, dstStride, accStride int, k *requantConsts) {
	_, _, _ = dst[(rows-1)*dstStride+8*groups8-1], acc[(rows-1)*accStride+8*groups8-1], bias[8*groups8-1]
	requantQ15AVX2(&dst[0], &acc[0], &bias[0], groups8, rows, 2*dstStride, 4*accStride, k)
}

//go:noescape
func matmulQ15AVX2(w, x *int16, acc *int32, rows4, cols16, n, accStride int)

//go:noescape
func requantQ15AVX2(dst *int16, acc, bias *int32, groups8, rows, dstStride, accStride int, k *requantConsts)
