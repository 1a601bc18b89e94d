//go:build amd64 && !purego

package cpufeat

// AVX2 reports whether the CPU executes AVX2 and the operating system
// saves the YMM registers across context switches. It is false in builds
// without the assembly kernels (other architectures, -tags purego).
//
// AVX512 reports whether the CPU executes AVX-512 Foundation and
// Byte/Word instructions on ZMM registers and the operating system saves
// the opmask, upper-ZMM and high-16-ZMM state. AVX512VL is not part of it:
// a kernel selected on this flag may use EVEX encodings at 512 bits only.
// It is false in builds without the assembly kernels.
var AVX2, AVX512 = detect()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func detect() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state; bits 5 to 7: the
	// opmask registers, the upper halves of ZMM0-15, and ZMM16-31.
	const ymmState, zmmState = 0x06, 0xE0
	xcr0, _ := xgetbv()
	if xcr0&ymmState != ymmState {
		return false, false
	}
	const avx2Bit, avx512f, avx512bw = 1 << 5, 1 << 16, 1 << 30
	_, b, _, _ := cpuid(7, 0)
	avx2 = b&avx2Bit != 0
	avx512 = avx2 && xcr0&zmmState == zmmState && b&(avx512f|avx512bw) == avx512f|avx512bw
	return avx2, avx512
}
