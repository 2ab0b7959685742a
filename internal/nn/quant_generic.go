//go:build !amd64

package nn

// The AVX2 quantized kernels exist on amd64 only; useAVX2 is never set
// elsewhere, so these are never called.

func matmulQ15Tiles(w, x []int16, acc []int32, rows4, cols16, n, accStride int) { panic(noAVX2) }

func requantTiles(dst []int16, acc, bias []int32, groups8, rows, dstStride, accStride int, k *requantConsts) {
	panic(noAVX2)
}
