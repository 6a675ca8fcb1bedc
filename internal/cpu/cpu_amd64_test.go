//go:build amd64 && !noasm

package cpu

import "testing"

// TestSIMDLevel pins the gate of each level: the CPU must report the
// instructions and XCR0 must show the OS saving the registers they use.
// An AVX-512 CPU under an OS that saves only XMM/YMM state, or that
// leaves out any one of the opmask, ZMM_Hi256 (the upper halves of
// Z0–Z15) and Hi16_ZMM (Z16–Z31, which the 32-row leaf body holds its A
// and B values in) components, must get the AVX2 level and no more; and
// DQ counts only on top of AVX-512F with its state.
func TestSIMDLevel(t *testing.T) {
	const (
		ecxAll   = 1<<12 | 1<<27 | 1<<28 // FMA, OSXSAVE, AVX
		avx2     = 1 << 5
		avx512f  = 1 << 16
		avx512dq = 1 << 17
	)
	for _, tc := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		avx2, avx512, dq bool
	}{
		{"nothing", 0, 0, 0, false, false, false},
		{"avx2", ecxAll, avx2, 0x06, true, false, false},
		{"avx2, OS saves no YMM", ecxAll, avx2, 0x02, false, false, false},
		{"avx2, no OSXSAVE", ecxAll &^ (1 << 27), avx2, 0, false, false, false},
		{"avx2, no FMA", ecxAll &^ (1 << 12), avx2, 0x06, false, false, false},
		{"avx512f, OS saves no ZMM", ecxAll, avx2 | avx512f, 0x06, true, false, false},
		{"avx512f, OS saves no opmask", ecxAll, avx2 | avx512f, 0xc6, true, false, false},
		{"avx512f, OS saves no ZMM16-31", ecxAll, avx2 | avx512f, 0x66, true, false, false},
		{"avx512f, OS saves no ZMM upper halves", ecxAll, avx2 | avx512f, 0xa6, true, false, false},
		{"ZMM state without avx512f", ecxAll, avx2, 0xe6, true, false, false},
		{"avx512f", ecxAll, avx2 | avx512f, 0xe6, true, true, false},
		{"avx512f without avx2", ecxAll, avx512f, 0xe6, false, false, false},
		{"avx512dq", ecxAll, avx2 | avx512f | avx512dq, 0xe6, true, true, true},
		{"avx512dq without avx512f", ecxAll, avx2 | avx512dq, 0xe6, true, false, false},
		{"avx512dq, OS saves no ZMM", ecxAll, avx2 | avx512f | avx512dq, 0x06, true, false, false},
	} {
		if a2, a5, dq := simdLevel(tc.ecx1, tc.ebx7, tc.xcr0); a2 != tc.avx2 || a5 != tc.avx512 || dq != tc.dq {
			t.Errorf("%s: simdLevel(%#x, %#x, %#x) = avx2 %v avx512 %v dq %v, want %v %v %v",
				tc.name, tc.ecx1, tc.ebx7, tc.xcr0, a2, a5, dq, tc.avx2, tc.avx512, tc.dq)
		}
	}
}
