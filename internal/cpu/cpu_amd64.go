package cpu

// cpuid executes CPUID with eax and ecx as given.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register state the OS saves and restores.
func xgetbv() (eax, edx uint32)

func hasAVX512() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX: XGETBV is enabled
		avx512f = 1 << 16 // CPUID.(7,0):EBX
		// XCR0: SSE, AVX, the opmask registers and both halves of the
		// 512-bit register file.
		zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	)
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx512f != 0
}
