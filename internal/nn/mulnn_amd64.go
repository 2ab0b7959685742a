//go:build amd64

package nn

// haveAVX2 reports whether this CPU runs the AVX2 tile and the OS saves
// ymm state across context switches: CPUID leaf 7 EBX bit 5 (AVX2), leaf 1
// ECX bits 27 and 28 (OSXSAVE, AVX), and XCR0 bits 1 and 2 (SSE and AVX
// state enabled). Read once per process.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// mulNNTiles runs the AVX2 kernel (mulnn_amd64.s) over mulNN's first m4
// rows and p8 columns — whole 4×8 tiles — where p is the row length of b
// and c.
func mulNNTiles(c, a, b []float64, m4, p8, k, p int) {
	// The kernel trusts its arguments: touch the last value it reads or
	// writes in each operand, so a short slice panics here instead.
	_, _, _ = c[(m4-1)*p+p8-1], a[m4*k-1], b[(k-1)*p+p8-1]
	mulNN4x8(&c[0], &a[0], &b[0], m4, p8, k, p)
}

//go:noescape
func mulNN4x8(c, a, b *float64, m4, p8, k, ldb int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
