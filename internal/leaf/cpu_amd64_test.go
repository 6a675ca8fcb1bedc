//go:build amd64 && !noasm

package leaf

import (
	"slices"
	"testing"
)

// TestSIMDLevel pins the gate of each assembly family: the CPU must
// report the instructions and XCR0 must show the OS saving the
// registers they use. An AVX-512 CPU under an OS that saves only
// XMM/YMM state must get the AVX2 family and no more.
func TestSIMDLevel(t *testing.T) {
	const (
		ecxAll  = 1<<12 | 1<<27 | 1<<28 // FMA, OSXSAVE, AVX
		avx2    = 1 << 5
		avx512f = 1 << 16
	)
	for _, tc := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		avx2, avx512     bool
	}{
		{"nothing", 0, 0, 0, false, false},
		{"avx2", ecxAll, avx2, 0x06, true, false},
		{"avx2, OS saves no YMM", ecxAll, avx2, 0x02, false, false},
		{"avx2, no OSXSAVE", ecxAll &^ (1 << 27), avx2, 0, false, false},
		{"avx2, no FMA", ecxAll &^ (1 << 12), avx2, 0x06, false, false},
		{"avx512f, OS saves no ZMM", ecxAll, avx2 | avx512f, 0x06, true, false},
		{"avx512f, OS saves no opmask", ecxAll, avx2 | avx512f, 0xc6, true, false},
		{"ZMM state without avx512f", ecxAll, avx2, 0xe6, true, false},
		{"avx512f", ecxAll, avx2 | avx512f, 0xe6, true, true},
		{"avx512f without avx2", ecxAll, avx512f, 0xe6, false, false},
	} {
		if a2, a5 := simdLevel(tc.ecx1, tc.ebx7, tc.xcr0); a2 != tc.avx2 || a5 != tc.avx512 {
			t.Errorf("%s: simdLevel(%#x, %#x, %#x) = avx2 %v avx512 %v, want %v %v",
				tc.name, tc.ecx1, tc.ebx7, tc.xcr0, a2, a5, tc.avx2, tc.avx512)
		}
	}
	// What the probe found is what is reported and registered.
	if slices.Contains(Features(), "avx512f") != cpuAVX512F {
		t.Errorf("Features() = %v with cpuAVX512F = %v", Features(), cpuAVX512F)
	}
	if names := SIMDNames(); len(names) > 0 && slices.Contains(names, "avx512") != cpuAVX512F {
		t.Errorf("SIMDNames() = %v with cpuAVX512F = %v", names, cpuAVX512F)
	}
}
