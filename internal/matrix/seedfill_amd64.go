//go:build amd64 && !noasm

package matrix

import "repro/internal/cpu"

func init() {
	if cpu.AVX512DQ && !cpu.NoSIMD {
		seedFill8 = seedFillAVX512
	}
}

// seedFillAVX512 fills dst, a positive multiple of 8 long, 8 lanes a step.
//
//go:noescape
func seedFillAVX512(dst []float64, seed uint64)
