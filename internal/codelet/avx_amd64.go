//go:build !purego

package codelet

// The widest body a split-radix loop may run, its isa argument: one lane
// per XMM register, two per YMM register, or four per ZMM register.
const (
	isaSSE2 = iota
	isaAVX
	isaAVX512
)

// loopISA is the widest body this host runs, checked once at init. AVX
// needs the CPU's AVX (CPUID leaf 1, ECX bit 28) and the OS to save the
// YMM state (OSXSAVE, ECX bit 27, and XCR0 bits 1 and 2, read by XGETBV);
// AVX-512 needs AVX-512F and DQ as well (leaf 7, EBX bits 16 and 17) and
// the opmask and both halves of the ZMM state saved (XCR0 bits 5–7).
var loopISA = detectISA()

// hasAVX reports whether the AVX kernels may run.
var hasAVX = loopISA >= isaAVX

func detectISA() int {
	const osxsave, avx, f, dq = 1 << 27, 1 << 28, 1 << 16, 1 << 17
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return isaSSE2
	}
	top, _, _, _ := cpuid(0, 0)
	_, ebx, _, _ := cpuid(7, 0)
	switch xcr0, _ := xgetbv(); {
	case xcr0&6 != 6:
		return isaSSE2
	case top >= 7 && ebx&(f|dq) == f|dq && xcr0&0xe6 == 0xe6:
		return isaAVX512
	}
	return isaAVX
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads the extended control register XCR0.
func xgetbv() (eax, edx uint32)
