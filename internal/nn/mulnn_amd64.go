//go:build amd64

package nn

// haveAVX2 and haveAVX512 report the kernel tiers this CPU runs and the OS
// saves the registers of (cpuTier). Read once per process.
var haveAVX2, haveAVX512 = detectTiers()

func detectTiers() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if ecx1&cpuidOSXSAVE != 0 { // XGETBV itself faults without OSXSAVE
		xcr0, _ = xgetbv()
	}
	t := cpuTier(maxLeaf, ecx1, ebx7, xcr0)
	return t >= tierAVX2, t >= tierAVX512
}

// mulTiles runs the assembly tiles over the first m4 rows of c and all p of
// its columns: c[r][q] += Σ_j a[r·ars+j·acs]·b[j][q], where b and c rows are
// ldb values apart. Where useAVX512 is set, the first m4 - m4 mod 8 rows go
// to the 8×16 zmm tile and a remaining four to the 4×8 ymm one; otherwise
// all m4 run on the 4×8.
func mulTiles(c, a, b []float64, m4, p, k, ldb, ars, acs int) {
	// The kernels trust their arguments: touch the last value they read or
	// write in each operand, so a short slice panics here instead.
	_, _, _ = c[(m4-1)*ldb+p-1], a[(m4-1)*ars+(k-1)*acs], b[(k-1)*ldb+p-1]
	m8 := 0
	if useAVX512 {
		m8 = m4 &^ 7
		if m8 > 0 {
			mulNN8x16(&c[0], &a[0], &b[0], m8, p, k, ldb, ars, acs)
		}
	}
	if m8 < m4 {
		mulNN4x8(&c[m8*ldb], &a[m8*ars], &b[0], m4-m8, p, k, ldb, ars, acs)
	}
}

//go:noescape
func mulNN4x8(c, a, b *float64, m4, p, k, ldb, ars, acs int)

//go:noescape
func mulNN8x16(c, a, b *float64, m8, p, k, ldb, ars, acs int)

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
