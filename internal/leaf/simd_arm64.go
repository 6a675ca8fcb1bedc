//go:build arm64 && !noasm

package leaf

// The NEON micro-kernel family: a 4×4 block of C held in eight 2-double
// vector registers (two per column) while streaming through k with
// FMLA. Like the AVX2 family, both variants load the C block up front,
// accumulate in registers, and store once at the end. MR is 4 (not 8):
// AArch64 FMLA operates on 128-bit vectors, so a 4×4 block already
// yields eight independent accumulator chains — the same chain count
// the 8×4 AVX2 kernel needs 256-bit registers for.
var microNEON = &microImpl{mr: 4, pp: micro4x4ppNEON, dd: micro4x4ddNEON}

// micro4x4ppNEON is the 4×4 packed-panel block, C[0:4,0:4] +=
// Apanel·Bpanel, in NEON assembly: each k step reads 4+4 contiguous
// doubles.
//
//go:noescape
func micro4x4ppNEON(kc int, pa, pb []float64, c []float64, ldc int)

// micro4x4ddNEON is micro4x4dd in NEON assembly: contiguous tiles read
// in place, A advancing by lda doubles per k step and the four B
// columns by one.
//
//go:noescape
func micro4x4ddNEON(kc int, a []float64, lda int, b0, b1, b2, b3 []float64, c []float64, ldc int)
