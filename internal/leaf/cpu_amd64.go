//go:build amd64 && !noasm

package leaf

import "repro/internal/cpu"

// archFeatures reports the probed SIMD capabilities of this CPU.
func archFeatures() []string {
	var fs []string
	if cpu.AVX2FMA {
		fs = append(fs, "avx2", "fma")
	}
	if cpu.AVX512F {
		fs = append(fs, "avx512f")
	}
	if cpu.AVX512DQ {
		fs = append(fs, "avx512dq")
	}
	return fs
}

// archSIMD returns the assembly kernel families this CPU can run.
func archSIMD() []simdImpl {
	var impls []simdImpl
	if cpu.AVX2FMA {
		impls = append(impls, simdImpl{name: "avx2", mk: microAVX2, features: "avx2+fma", balance: 3.4})
	}
	if cpu.AVX512F {
		impls = append(impls, simdImpl{name: "avx512", mk: microAVX512, features: "avx512f", balance: 6.8})
	}
	return impls
}
