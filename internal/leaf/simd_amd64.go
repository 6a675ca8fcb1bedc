//go:build amd64 && !noasm

package leaf

// The amd64 micro-kernel families: an MR×4 block of C held in eight
// vector accumulators (two per column) while streaming through k with
// VFMADD231PD — 8 rows in YMM for AVX2/FMA, 16 in ZMM for AVX-512F.
// Every body loads the C block up front, accumulates into registers,
// and stores once at the end — one rounding reordering versus the
// pure-Go kernels (C joins the sum first instead of last), well inside
// the differential-fuzz tolerance, and the same one in both widths: the
// two families are one rounding class, bit for bit.
//
// Contiguous tiles go through the whole-panel entry, one call for all
// the full blocks of a tile; the 16-row family hands an 8-row remainder
// to the 8-row family (rem), so a row runs through assembly in one
// family exactly when it does in the other. What is left of the rows
// after that is under 8 and runs through the 8-row body too, zero-padded
// to one block, as the n%4 columns left run through either body padded
// to four (directMul): the fringe needs no assembly body of its own and
// no scalar loop.
var (
	microAVX2   = &microImpl{mr: 8, pp: micro8x4ppAVX2, panel: panel8x4AVX2}
	microAVX512 = &microImpl{mr: 16, pp: micro16x4ppAVX512, panel: panel16x4AVX512, rem: microAVX2}
)

// micro8x4ppAVX2 is micro8x4pp in AVX2/FMA assembly: packed panels, so
// each k step reads 8+4 contiguous doubles (two YMM loads of A, four
// broadcast loads of B). kc must be ≥ 0; c must expose a full 8×4 block.
//
//go:noescape
func micro8x4ppAVX2(kc int, pa, pb []float64, c []float64, ldc int)

// micro16x4ppAVX512 is the 16-row packed-panel body: two ZMM loads of A
// per k step, A packed at interleave 16.
//
//go:noescape
func micro16x4ppAVX512(kc int, pa, pb []float64, c []float64, ldc int)

// panel8x4AVX2 is the whole-panel direct entry in AVX2/FMA assembly:
// C[0:rows,0:n] += A·B on column-major operands read in place, every
// 8×4 block of it in registers in turn. rows must be a positive
// multiple of 8, n of 4, and k ≥ 1.
//
//go:noescape
func panel8x4AVX2(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)

// panel16x4AVX512 is the whole-panel direct entry in 16×4 ZMM blocks;
// rows must be a positive multiple of 16.
//
//go:noescape
func panel16x4AVX512(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)
