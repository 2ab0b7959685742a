package nn

import "testing"

// TestKernelTier logs the tier this process selected, so a CI log says
// which kernels its bitwise tests ran on the fastest tier of (a box
// without AVX-512 shows avx2 here and skips the avx512 subtests), and
// checks the selectors start on it.
func TestKernelTier(t *testing.T) {
	host := hostTier()
	t.Logf("kernel tier: %s", host)
	if useAVX2 != (host >= tierAVX2) || useAVX512 != (host >= tierAVX512) {
		t.Fatalf("selectors useAVX2=%v useAVX512=%v, want the %s tier", useAVX2, useAVX512, host)
	}
}

// TestCPUTier pins tier selection to the CPUID and XCR0 bits, including the
// machines that report an instruction set whose registers the OS or
// hypervisor has not enabled: selecting that tier would raise SIGILL.
func TestCPUTier(t *testing.T) {
	const (
		leaf1  = cpuidOSXSAVE | cpuidAVX
		leaf7  = cpuidAVX2 | cpuidAVX512F
		xcrAll = xcr0AVX | xcr0AVX512 | 1 // x87 state is always set
	)
	for _, c := range []struct {
		name                     string
		maxLeaf, ecx1, ebx7, xcr uint32
		want                     kernelTier
	}{
		{"everything", 0xd, leaf1, leaf7, xcrAll, tierAVX512},
		{"AVX-512 without zmm state in XCR0", 0xd, leaf1, leaf7, xcr0AVX | 1, tierAVX2},
		{"AVX-512 without opmask state", 0xd, leaf1, leaf7, xcrAll &^ (1 << 5), tierAVX2},
		{"AVX-512 without the upper zmm0-15 state", 0xd, leaf1, leaf7, xcrAll &^ (1 << 6), tierAVX2},
		{"AVX-512 without zmm16-31 state", 0xd, leaf1, leaf7, xcrAll &^ (1 << 7), tierAVX2},
		{"AVX2 without AVX512F", 0xd, leaf1, cpuidAVX2, xcrAll, tierAVX2},
		{"AVX2 without OSXSAVE", 0xd, cpuidAVX, leaf7, 0, tierPortable},
		{"AVX2 without the AVX bit", 0xd, cpuidOSXSAVE, leaf7, xcrAll, tierPortable},
		{"AVX2 without ymm state in XCR0", 0xd, leaf1, leaf7, xcrAll &^ (1 << 2), tierPortable},
		{"AVX512F without AVX2", 0xd, leaf1, cpuidAVX512F, xcrAll, tierPortable},
		{"max leaf below 7", 6, leaf1, leaf7, xcrAll, tierPortable},
		{"nothing", 0, 0, 0, 0, tierPortable},
	} {
		if got := cpuTier(c.maxLeaf, c.ecx1, c.ebx7, c.xcr); got != c.want {
			t.Errorf("%s: tier %s, want %s", c.name, got, c.want)
		}
	}
}
