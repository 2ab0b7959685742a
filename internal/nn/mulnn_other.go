//go:build !amd64

package nn

// haveAVX2 is false off amd64: mulNN always takes its portable path.
const haveAVX2 = false

func mulNNTiles(c, a, b []float64, m4, p8, k, p int) {
	panic("nn: AVX2 kernel selected on a non-amd64 build")
}
