//go:build amd64 && !noasm

package cpu

// The probe, stdlib-only: the CPUID and XGETBV instructions are issued
// directly from cpuid_amd64.s. The AVX2 level needs all of
//
//   - FMA  (CPUID.1:ECX bit 12) — the VFMADD231PD instruction,
//   - AVX  (CPUID.1:ECX bit 28) — the VEX 256-bit encoding,
//   - AVX2 (CPUID.7.0:EBX bit 5) — 256-bit VBROADCASTSD from memory,
//   - OSXSAVE (CPUID.1:ECX bit 27) plus XCR0 bits 1–2 — the OS saves
//     and restores the XMM/YMM halves of the vector state across
//     context switches. Without this check, an OS that never enabled
//     AVX state would corrupt registers mid-computation.
//
// The AVX-512F level needs all of that and
//
//   - AVX512F (CPUID.7.0:EBX bit 16) — the EVEX 512-bit encodings,
//   - XCR0 bits 5–7 — the OS also saves the opmask registers, the upper
//     halves of ZMM0–15 and ZMM16–31,
//   - and for the AVX-512DQ level, AVX512DQ (CPUID.7.0:EBX bit 17).

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// osxsave is the CPUID.1:ECX bit saying the OS uses XSAVE, so XCR0 exists.
const osxsave = 1 << 27

func init() {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0 uint32
	if ecx1&osxsave != 0 { // XGETBV faults without it
		xcr0, _ = xgetbv()
	}
	_, ebx7, _, _ := cpuid(7, 0)
	AVX2FMA, AVX512F, AVX512DQ = simdLevel(ecx1, ebx7, xcr0)
}

// simdLevel decides, from CPUID.1:ECX, CPUID.7.0:EBX and XCR0, which
// levels the host has: the CPU must have the instructions and the OS
// must save the registers they use.
func simdLevel(ecx1, ebx7, xcr0 uint32) (avx2, avx512, avx512dq bool) {
	const (
		fma, avx                      = 1 << 12, 1 << 28
		avx2Bit, avx512f, avx512dqBit = 1 << 5, 1 << 16, 1 << 17
		ymmState                      = 0x06 // XCR0: SSE, AVX
		zmmState                      = 0xe6 // and opmask, ZMM_Hi256, Hi16_ZMM
	)
	avx2 = ecx1&fma != 0 && ecx1&osxsave != 0 && ecx1&avx != 0 &&
		xcr0&ymmState == ymmState && ebx7&avx2Bit != 0
	avx512 = avx2 && ebx7&avx512f != 0 && xcr0&zmmState == zmmState
	return avx2, avx512, avx512 && ebx7&avx512dqBit != 0
}
