package leaf

import "math"

// Register-blocked micro-kernels. Each computes an MR×NR block of
// C += A·B holding the full block in scalar accumulators while streaming
// through k, the BLIS-style inner loop the packed kernels are built on.
// The (*[N]float64) slice-to-array-pointer conversions concentrate the
// bounds checking into one check per k step, letting the element loads
// compile to constant-offset, check-free instructions.
//
// Two storage variants exist per block shape:
//
//   - pp ("packed"): A and B are panel-packed (pack.go), so each k step
//     reads MR+NR contiguous doubles regardless of the original leading
//     dimensions. This is the path for canonical (large-ld) operands.
//   - dd ("direct"): A and B are contiguous column-major tiles
//     (lda == m, ldb == k) and are read in place with no packing — the
//     tiles the recursive layouts exist to create.
//
// The m%MR / n%NR fringe runs through the same bodies on zero-padded
// operands (see packedMul).

// micro8x4pp: C[0:8,0:4] += Apanel·Bpanel, A packed at interleave 8.
// Thirty-two live accumulators exceed the register file on amd64, so this
// variant trades spills for halved loop overhead per FMA; on the hosts
// measured (`make bench-kernel`) that trade won over a 4×4 block.
func micro8x4pp(kc int, pa, pb []float64, c []float64, ldc int) {
	var c00, c10, c20, c30, c40, c50, c60, c70 float64
	var c01, c11, c21, c31, c41, c51, c61, c71 float64
	var c02, c12, c22, c32, c42, c52, c62, c72 float64
	var c03, c13, c23, c33, c43, c53, c63, c73 float64
	for p := 0; p < kc; p++ {
		aa := (*[8]float64)(pa[8*p:])
		bb := (*[4]float64)(pb[4*p:])
		b0, b1, b2, b3 := bb[0], bb[1], bb[2], bb[3]
		a := aa[0]
		c00 = math.FMA(a, b0, c00)
		c01 = math.FMA(a, b1, c01)
		c02 = math.FMA(a, b2, c02)
		c03 = math.FMA(a, b3, c03)
		a = aa[1]
		c10 = math.FMA(a, b0, c10)
		c11 = math.FMA(a, b1, c11)
		c12 = math.FMA(a, b2, c12)
		c13 = math.FMA(a, b3, c13)
		a = aa[2]
		c20 = math.FMA(a, b0, c20)
		c21 = math.FMA(a, b1, c21)
		c22 = math.FMA(a, b2, c22)
		c23 = math.FMA(a, b3, c23)
		a = aa[3]
		c30 = math.FMA(a, b0, c30)
		c31 = math.FMA(a, b1, c31)
		c32 = math.FMA(a, b2, c32)
		c33 = math.FMA(a, b3, c33)
		a = aa[4]
		c40 = math.FMA(a, b0, c40)
		c41 = math.FMA(a, b1, c41)
		c42 = math.FMA(a, b2, c42)
		c43 = math.FMA(a, b3, c43)
		a = aa[5]
		c50 = math.FMA(a, b0, c50)
		c51 = math.FMA(a, b1, c51)
		c52 = math.FMA(a, b2, c52)
		c53 = math.FMA(a, b3, c53)
		a = aa[6]
		c60 = math.FMA(a, b0, c60)
		c61 = math.FMA(a, b1, c61)
		c62 = math.FMA(a, b2, c62)
		c63 = math.FMA(a, b3, c63)
		a = aa[7]
		c70 = math.FMA(a, b0, c70)
		c71 = math.FMA(a, b1, c71)
		c72 = math.FMA(a, b2, c72)
		c73 = math.FMA(a, b3, c73)
	}
	cc := (*[8]float64)(c[0*ldc:])
	cc[0] += c00
	cc[1] += c10
	cc[2] += c20
	cc[3] += c30
	cc[4] += c40
	cc[5] += c50
	cc[6] += c60
	cc[7] += c70
	cc = (*[8]float64)(c[1*ldc:])
	cc[0] += c01
	cc[1] += c11
	cc[2] += c21
	cc[3] += c31
	cc[4] += c41
	cc[5] += c51
	cc[6] += c61
	cc[7] += c71
	cc = (*[8]float64)(c[2*ldc:])
	cc[0] += c02
	cc[1] += c12
	cc[2] += c22
	cc[3] += c32
	cc[4] += c42
	cc[5] += c52
	cc[6] += c62
	cc[7] += c72
	cc = (*[8]float64)(c[3*ldc:])
	cc[0] += c03
	cc[1] += c13
	cc[2] += c23
	cc[3] += c33
	cc[4] += c43
	cc[5] += c53
	cc[6] += c63
	cc[7] += c73
}

// micro8x4dd: C[0:8,0:4] += A·B on contiguous column-major tiles read in
// place: a is positioned at the block's first row with column stride lda,
// b0..b3 are the four B columns (length ≥ kc). See micro8x4pp for the
// register pressure trade-off.
func micro8x4dd(kc int, a []float64, lda int, b0, b1, b2, b3 []float64, c []float64, ldc int) {
	var c00, c10, c20, c30, c40, c50, c60, c70 float64
	var c01, c11, c21, c31, c41, c51, c61, c71 float64
	var c02, c12, c22, c32, c42, c52, c62, c72 float64
	var c03, c13, c23, c33, c43, c53, c63, c73 float64
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
	cc := (*[8]float64)(c[0*ldc:])
	cc[0] += c00
	cc[1] += c10
	cc[2] += c20
	cc[3] += c30
	cc[4] += c40
	cc[5] += c50
	cc[6] += c60
	cc[7] += c70
	cc = (*[8]float64)(c[1*ldc:])
	cc[0] += c01
	cc[1] += c11
	cc[2] += c21
	cc[3] += c31
	cc[4] += c41
	cc[5] += c51
	cc[6] += c61
	cc[7] += c71
	cc = (*[8]float64)(c[2*ldc:])
	cc[0] += c02
	cc[1] += c12
	cc[2] += c22
	cc[3] += c32
	cc[4] += c42
	cc[5] += c52
	cc[6] += c62
	cc[7] += c72
	cc = (*[8]float64)(c[3*ldc:])
	cc[0] += c03
	cc[1] += c13
	cc[2] += c23
	cc[3] += c33
	cc[4] += c43
	cc[5] += c53
	cc[6] += c63
	cc[7] += c73
}
