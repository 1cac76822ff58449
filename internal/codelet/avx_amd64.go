//go:build !purego

package codelet

// hasAVX reports whether the two-lane AVX kernels may run: the CPU has AVX
// (CPUID leaf 1, ECX bit 28) and the OS saves the YMM state on a context
// switch (OSXSAVE, ECX bit 27, and XCR0 bits 1 and 2, read by XGETBV).
var hasAVX = detectAVX()

func detectAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads the extended control register XCR0.
func xgetbv() (eax, edx uint32)
