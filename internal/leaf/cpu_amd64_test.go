//go:build amd64 && !noasm

package leaf

import (
	"slices"
	"testing"

	"repro/internal/cpu"
)

// TestSIMDLevel pins that the levels the probe decided (internal/cpu's
// TestSIMDLevel pins the decision) are what is reported and registered.
func TestSIMDLevel(t *testing.T) {
	for f, on := range map[string]bool{"avx2": cpu.AVX2FMA, "avx512f": cpu.AVX512F, "avx512dq": cpu.AVX512DQ} {
		if slices.Contains(Features(), f) != on {
			t.Errorf("Features() = %v with %s = %v", Features(), f, on)
		}
	}
	if names := SIMDNames(); len(names) > 0 && slices.Contains(names, "avx512") != cpu.AVX512F {
		t.Errorf("SIMDNames() = %v with cpu.AVX512F = %v", names, cpu.AVX512F)
	}
}
