package nn

import (
	"slices"
	_ "unsafe" // for go:linkname
)

// kernelTier is a set of kernels a process can run. Each tier runs
// everything the one below it does: the AVX2 tier the assembly for every
// pass (mulnn_amd64.s, elem_amd64.s), the AVX-512 tier the same with the
// 8×16 zmm tile under the matrix products.
type kernelTier int

const (
	tierPortable kernelTier = iota
	tierAVX2
	tierAVX512
)

var tierNames = [...]string{"portable", "avx2", "avx512"}

func (t kernelTier) String() string { return tierNames[t] }

// CPUID and XCR0 bits cpuTier reads.
const (
	cpuidFMA     = 1 << 12            // leaf 1 ECX: FMA3 (VFMADD231PD)
	cpuidOSXSAVE = 1 << 27            // leaf 1 ECX: the OS enabled XGETBV
	cpuidAVX     = 1 << 28            // leaf 1 ECX
	cpuidAVX2    = 1 << 5             // leaf 7 EBX
	cpuidAVX512F = 1 << 16            // leaf 7 EBX
	xcr0AVX      = 1<<1 | 1<<2        // SSE and AVX (ymm) state
	xcr0AVX512   = 1<<5 | 1<<6 | 1<<7 // opmask, upper halves of zmm0–15, zmm16–31
)

// cpuTier is the highest tier a machine runs, given the words CPUID and
// XGETBV report: maxLeaf (leaf 0 EAX), ecx1 (leaf 1 ECX), ebx7 (leaf 7 EBX,
// meaningless if maxLeaf < 7) and xcr0 (XCR0's low word, meaningless
// without OSXSAVE). The CPUID bits say what the CPU executes, XCR0 which
// registers the OS saves across context switches; a tier needs both, since
// an instruction on registers the OS (or a hypervisor) left disabled
// raises #UD.
//
//   - AVX2: OSXSAVE, AVX and FMA, AVX2, and the SSE and AVX state in XCR0.
//     The ymm tile's VFMADD231PD is an FMA3 instruction, not an AVX2 one,
//     and a hypervisor may mask FMA while reporting AVX2.
//   - AVX-512: all of that, AVX512F, and the opmask and both zmm states in
//     XCR0. The tile is AVX512F-only (KMOVW, not DQ's KMOVB; the zmm
//     VFMADD231PD is AVX512F).
func cpuTier(maxLeaf, ecx1, ebx7, xcr0 uint32) kernelTier {
	const leaf1 = cpuidOSXSAVE | cpuidAVX | cpuidFMA
	if maxLeaf < 7 || ecx1&leaf1 != leaf1 ||
		xcr0&xcr0AVX != xcr0AVX || ebx7&cpuidAVX2 == 0 {
		return tierPortable
	}
	if ebx7&cpuidAVX512F == 0 || xcr0&xcr0AVX512 != xcr0AVX512 {
		return tierAVX2
	}
	return tierAVX512
}

// useTier points the kernel selectors (useAVX2, useAVX512) at the named
// tier and returns a func that restores them. If this machine cannot run
// that tier it changes nothing and returns nil and the reason. Only tests
// call it, to run every tier on one machine: nn's directly, rl's by
// linkname, so that the tier stays out of the package's API. The selectors
// are process-wide, so callers must not run in parallel.
//
//go:linkname useTier
func useTier(name string) (restore func(), skip string) {
	t := kernelTier(slices.Index(tierNames[:], name))
	if t < 0 {
		panic("nn: no kernel tier " + name)
	}
	if host := hostTier(); t > host {
		return nil, "this machine runs kernel tiers up to " + host.String() + ", not " + name
	}
	was2, was512 := useAVX2, useAVX512
	useAVX2, useAVX512 = t >= tierAVX2, t >= tierAVX512
	return func() { useAVX2, useAVX512 = was2, was512 }, ""
}

// hostTier is the highest tier this machine runs.
func hostTier() kernelTier {
	switch {
	case haveAVX512:
		return tierAVX512
	case haveAVX2:
		return tierAVX2
	}
	return tierPortable
}
