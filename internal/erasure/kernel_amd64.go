package erasure

// The three routines of kernel_amd64.s.

//go:noescape
func mulAddVec(tab *[32]byte, dst, src *byte, n int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// vectorAvailable reports whether mulAddVec may run here: the CPU has
// AVX2 and the operating system saves the YMM registers across context
// switches (OSXSAVE set, XCR0 enabling the SSE and AVX state).
func vectorAvailable() bool {
	const (
		osxsave = 1 << 27 // leaf 1, ECX
		avx     = 1 << 28 // leaf 1, ECX
		avx2    = 1 << 5  // leaf 7 subleaf 0, EBX
		ymm     = 0b110   // XCR0: XMM and YMM state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymm != ymm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
