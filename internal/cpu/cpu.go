// Package cpu probes once, at start-up, which SIMD levels the CPU has
// and the OS saves the registers of. The probe is assembly: under
// `-tags noasm` and on other GOARCHes than amd64 every level is false.
package cpu

import "os"

// NoSIMD reports RECMAT_NOSIMD set to any non-empty value: the runtime
// equivalent of `-tags noasm`. The levels still describe the hardware.
var NoSIMD = os.Getenv("RECMAT_NOSIMD") != ""

// AVX2FMA, AVX512F and AVX512DQ are the amd64 levels, each implying the
// one before; DQ adds VPMULLQ and VCVTQQ2PD to AVX-512F.
var AVX2FMA, AVX512F, AVX512DQ bool
