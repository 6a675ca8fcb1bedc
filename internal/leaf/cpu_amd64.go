//go:build amd64 && !noasm

package leaf

// CPU-feature detection for the amd64 assembly kernels, stdlib-only:
// the CPUID and XGETBV instructions are issued directly from
// cpuid_amd64.s. The AVX2/FMA kernel needs all of
//
//   - FMA  (CPUID.1:ECX bit 12) — the VFMADD231PD instruction,
//   - AVX  (CPUID.1:ECX bit 28) — the VEX 256-bit encoding,
//   - AVX2 (CPUID.7.0:EBX bit 5) — 256-bit VBROADCASTSD from memory,
//   - OSXSAVE (CPUID.1:ECX bit 27) plus XCR0 bits 1–2 — the OS saves
//     and restores the XMM/YMM halves of the vector state across
//     context switches. Without this check, an OS that never enabled
//     AVX state would corrupt registers mid-computation.
//
// The AVX-512 kernel needs all of that and
//
//   - AVX512F (CPUID.7.0:EBX bit 16) — the EVEX 512-bit encodings,
//   - XCR0 bits 5–7 — the OS also saves the opmask registers, the upper
//     halves of ZMM0–15 and ZMM16–31.

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// osxsave is the CPUID.1:ECX bit saying the OS uses XSAVE, so XCR0 exists.
const osxsave = 1 << 27

// cpuAVX2FMA and cpuAVX512F are probed once at package init.
var cpuAVX2FMA, cpuAVX512F = detectSIMD()

func detectSIMD() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0 uint32
	if ecx1&osxsave != 0 { // XGETBV faults without it
		xcr0, _ = xgetbv()
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return simdLevel(ecx1, ebx7, xcr0)
}

// simdLevel decides, from CPUID.1:ECX, CPUID.7.0:EBX and XCR0, which
// kernel families may run: the CPU must have the instructions and the
// OS must save the registers they use. AVX-512 implies the AVX2 level.
func simdLevel(ecx1, ebx7, xcr0 uint32) (avx2, avx512 bool) {
	const (
		fma, avx         = 1 << 12, 1 << 28
		avx2Bit, avx512f = 1 << 5, 1 << 16
		ymmState         = 0x06 // XCR0: SSE, AVX
		zmmState         = 0xe6 // and opmask, ZMM_Hi256, Hi16_ZMM
	)
	avx2 = ecx1&fma != 0 && ecx1&osxsave != 0 && ecx1&avx != 0 &&
		xcr0&ymmState == ymmState && ebx7&avx2Bit != 0
	avx512 = avx2 && ebx7&avx512f != 0 && xcr0&zmmState == zmmState
	return avx2, avx512
}

// archFeatures reports the probed SIMD capabilities of this CPU.
func archFeatures() []string {
	var fs []string
	if cpuAVX2FMA {
		fs = append(fs, "avx2", "fma")
	}
	if cpuAVX512F {
		fs = append(fs, "avx512f")
	}
	return fs
}

// archSIMD returns the assembly kernel families this CPU can run.
func archSIMD() []simdImpl {
	var impls []simdImpl
	if cpuAVX2FMA {
		impls = append(impls, simdImpl{name: "avx2", mk: microAVX2, features: "avx2+fma", balance: 3.4})
	}
	if cpuAVX512F {
		impls = append(impls, simdImpl{name: "avx512", mk: microAVX512, features: "avx512f", balance: 6.8})
	}
	return impls
}
