//go:build amd64

package nn

// haveAVX2 reports whether this CPU runs the AVX2 kernels and the OS saves
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

// mulTiles runs the AVX2 tile (mulnn_amd64.s) over the first m4 rows of c
// and all p of its columns: c[r][q] += Σ_j a[r·ars+j·acs]·b[j][q], where b
// and c rows are ldb values apart.
func mulTiles(c, a, b []float64, m4, p, k, ldb, ars, acs int) {
	// The kernel trusts its arguments: touch the last value it reads or
	// writes in each operand, so a short slice panics here instead.
	_, _, _ = c[(m4-1)*ldb+p-1], a[(m4-1)*ars+(k-1)*acs], b[(k-1)*ldb+p-1]
	mulNN4x8(&c[0], &a[0], &b[0], m4, p, k, ldb, ars, acs)
}

//go:noescape
func mulNN4x8(c, a, b *float64, m4, p, k, ldb, ars, acs int)

//go:noescape
func transposeAVX2(dst, src *float64, rows8, cols4, rows, cols int)

// The elementwise kernels (elem_amd64.s). Their callers in elementwise.go
// and nn.go pass n ≤ the length of every operand.

//go:noescape
func reluAVX2(x *float64, n int)

//go:noescape
func reluDeltaAVX2(d, grad, y *float64, n int)

//go:noescape
func tanhDeltaAVX2(d, grad, y *float64, n int)

//go:noescape
func sumRowsAVX2(sum, d *float64, n, w int)

//go:noescape
func adamAVX2(w, grad, m, v *float64, n int, k *adamConsts)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
