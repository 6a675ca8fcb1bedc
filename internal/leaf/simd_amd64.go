//go:build amd64 && !noasm

package leaf

// The amd64 micro-kernel families: an MR×4 block of C held in vector
// accumulators while streaming through k with VFMADD231PD — 8 rows in
// YMM for AVX2/FMA (eight accumulators), 32 in ZMM for AVX-512F (sixteen,
// with its 16- and 8-row remainders). Every body loads the C block up
// front (the store form starts it at +0), accumulates into registers,
// and stores once at the end: each element is its C, then the products
// fused in ascending k, as in packed8x4's pure-Go body, so the two
// families and packed8x4 are one rounding class, bit for bit.
//
// Every tile, contiguous or strided, goes through the whole-panel entry,
// one call for all the full blocks of a tile; the 32-row body hands what
// is left to the 16-row body and that to the 8-row family (rem), so a row
// runs through assembly in one family exactly when it does in the other.
// What is left of the rows after that is under 8 and runs through the
// 8-row body too, zero-padded to one block, as the n%4 columns left run
// through either body padded to four (packedMul): the fringe needs no
// assembly body of its own and no scalar loop.
var (
	microAVX2   = &microImpl{mr: 8, panel: panel8x4AVX2}
	microAVX512 = &microImpl{mr: 32, panel: panel32x4AVX512,
		rem: &microImpl{mr: 16, panel: panel16x4AVX512, rem: microAVX2}}
)

// panel8x4AVX2 is the whole-panel entry in AVX2/FMA assembly:
// C[0:rows,0:n] += A·B on column-major operands read in place at their
// leading dimensions, every 8×4 block of it in registers in turn — or,
// with store, C ← A·B without reading C. rows must be a positive multiple
// of 8, n of 4, and k ≥ 1.
//
//go:noescape
func panel8x4AVX2(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool)

// panel16x4AVX512 and panel32x4AVX512 are the whole-panel entries in
// 16×4 and 32×4 ZMM blocks; rows must be a positive multiple of 16 or 32.
//
//go:noescape
func panel16x4AVX512(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool)

//go:noescape
func panel32x4AVX512(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool)

// prefetchCols is Prefetch's PREFETCHT0 loop; rows, cols ≥ 1.
//
//go:noescape
func prefetchCols(a []float64, rows, cols, lda int)
