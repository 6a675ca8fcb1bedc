package leaf

import "math"

// Register-blocked micro-kernels. Each computes an MR×NR block of
// C += A·B holding the full block in scalar accumulators while streaming
// through k, the inner loop the register-blocked kernels are built on.
// The (*[N]float64) slice-to-array-pointer conversions concentrate the
// bounds checking into one check per k step, letting the element loads
// compile to constant-offset, check-free instructions.
//
// Each family has one body per block shape, dd ("direct"): A and B are
// column-major and read in place at their leading dimensions — a
// contiguous tile of a recursive layout (lda == m, ldb == k) or a strided
// view into canonical storage — with no packing. The m%MR / n%NR fringe
// runs through the same body on zero-padded operands (see packedMul).

// micro8x4dd: C[0:8,0:4] += A·B on column-major operands read in place:
// a is positioned at the block's first row with column stride lda,
// b0..b3 are the four B columns (length ≥ kc). Like the assembly bodies
// it chains from C: each accumulator starts at its C element and takes
// the products fused in ascending k, and is stored once at the end.
// Thirty-two live accumulators exceed the register file on amd64, so
// this block trades spills for halved loop overhead per FMA; on the
// hosts measured (`make bench-kernel`) that trade won over a 4×4 block.
func micro8x4dd(kc int, a []float64, lda int, b0, b1, b2, b3 []float64, c []float64, ldc int) {
	c0, c1, c2, c3 := (*[8]float64)(c[0*ldc:]), (*[8]float64)(c[1*ldc:]), (*[8]float64)(c[2*ldc:]), (*[8]float64)(c[3*ldc:])
	c00, c10, c20, c30, c40, c50, c60, c70 := c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7]
	c01, c11, c21, c31, c41, c51, c61, c71 := c1[0], c1[1], c1[2], c1[3], c1[4], c1[5], c1[6], c1[7]
	c02, c12, c22, c32, c42, c52, c62, c72 := c2[0], c2[1], c2[2], c2[3], c2[4], c2[5], c2[6], c2[7]
	c03, c13, c23, c33, c43, c53, c63, c73 := c3[0], c3[1], c3[2], c3[3], c3[4], c3[5], c3[6], c3[7]
	b0, b1, b2, b3 = b0[:kc], b1[:kc], b2[:kc], b3[:kc]
	ao := 0
	for p := 0; p < kc; p++ {
		aa := (*[8]float64)(a[ao:])
		v0, v1, v2, v3 := b0[p], b1[p], b2[p], b3[p]
		av := aa[0]
		c00 = math.FMA(av, v0, c00)
		c01 = math.FMA(av, v1, c01)
		c02 = math.FMA(av, v2, c02)
		c03 = math.FMA(av, v3, c03)
		av = aa[1]
		c10 = math.FMA(av, v0, c10)
		c11 = math.FMA(av, v1, c11)
		c12 = math.FMA(av, v2, c12)
		c13 = math.FMA(av, v3, c13)
		av = aa[2]
		c20 = math.FMA(av, v0, c20)
		c21 = math.FMA(av, v1, c21)
		c22 = math.FMA(av, v2, c22)
		c23 = math.FMA(av, v3, c23)
		av = aa[3]
		c30 = math.FMA(av, v0, c30)
		c31 = math.FMA(av, v1, c31)
		c32 = math.FMA(av, v2, c32)
		c33 = math.FMA(av, v3, c33)
		av = aa[4]
		c40 = math.FMA(av, v0, c40)
		c41 = math.FMA(av, v1, c41)
		c42 = math.FMA(av, v2, c42)
		c43 = math.FMA(av, v3, c43)
		av = aa[5]
		c50 = math.FMA(av, v0, c50)
		c51 = math.FMA(av, v1, c51)
		c52 = math.FMA(av, v2, c52)
		c53 = math.FMA(av, v3, c53)
		av = aa[6]
		c60 = math.FMA(av, v0, c60)
		c61 = math.FMA(av, v1, c61)
		c62 = math.FMA(av, v2, c62)
		c63 = math.FMA(av, v3, c63)
		av = aa[7]
		c70 = math.FMA(av, v0, c70)
		c71 = math.FMA(av, v1, c71)
		c72 = math.FMA(av, v2, c72)
		c73 = math.FMA(av, v3, c73)
		ao += lda
	}
	c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7] = c00, c10, c20, c30, c40, c50, c60, c70
	c1[0], c1[1], c1[2], c1[3], c1[4], c1[5], c1[6], c1[7] = c01, c11, c21, c31, c41, c51, c61, c71
	c2[0], c2[1], c2[2], c2[3], c2[4], c2[5], c2[6], c2[7] = c02, c12, c22, c32, c42, c52, c62, c72
	c3[0], c3[1], c3[2], c3[3], c3[4], c3[5], c3[6], c3[7] = c03, c13, c23, c33, c43, c53, c63, c73
}
