package leaf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// microEdge is the scalar fringe loop the register-blocked families ran
// until their fringe went through the block bodies on padded operands;
// it stays here as the bit oracle of that path. It computes the mr×nr
// block C += A·B with explicit strides: A(r,p) = a[p*as+r], B(p,c) =
// b[p*bs+c*be], C(r,c) = c[c*ldc+r] — a zero accumulator, the products
// fused in ascending k, one add into C.
func microEdge(mr, nr, kc int, a []float64, as int, b []float64, bs, be int, c []float64, ldc int) {
	for cj := 0; cj < nr; cj++ {
		for ri := 0; ri < mr; ri++ {
			var sum float64
			ao, bo := ri, cj*be
			for p := 0; p < kc; p++ {
				sum = math.FMA(a[ao], b[bo], sum)
				ao += as
				bo += bs
			}
			c[cj*ldc+ri] += sum
		}
	}
}

// fringeOracle is what packedMul over mk must produce, bit for bit: the
// fringe rows and columns by microEdge, and the full blocks by the
// order the family's bodies fuse in — an assembly body starts its chain
// from the C element (cFirst), the pure-Go one from zero.
func fringeOracle(mk *microImpl, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if k == 0 {
		return
	}
	last := mk
	for last.rem != nil {
		last = last.rem
	}
	i0, nf := m-m%last.mr, n-n%MicroN
	if cFirst := mk != microGo8; cFirst {
		for j := 0; j < nf; j++ {
			for i := 0; i < i0; i++ {
				acc := c[j*ldc+i]
				for p := 0; p < k; p++ {
					acc = math.FMA(a[p*lda+i], b[j*ldb+p], acc)
				}
				c[j*ldc+i] = acc
			}
		}
	} else {
		microEdge(i0, nf, k, a, lda, b, 1, ldb, c, ldc)
	}
	if i0 < m {
		microEdge(m-i0, nf, k, a[i0:], lda, b, 1, ldb, c[i0:], ldc)
	}
	if nf < n {
		microEdge(m, n-nf, k, a, lda, b[nf*ldb:], 1, ldb, c[nf*ldc:], ldc)
	}
}

// fringeFamilies lists the register-blocked families this process can
// run: the pure-Go one always, the assembly ones the host registered.
func fringeFamilies() []simdImpl {
	fams := []simdImpl{{name: "packed8x4", mk: microGo8}}
	for _, si := range archSIMD() {
		if _, err := Get(si.name); err == nil { // not under RECMAT_NOSIMD
			fams = append(fams, si)
		}
	}
	return fams
}

// TestFringeMatchesScalarOracle pins the padded-block fringe to the
// scalar loop it replaced: every family, every row count through three
// 16-row blocks, every column count through three 4-column blocks, k
// from 0, contiguous tiles (directMul) and strided views (packedRows),
// one Scratch throughout so that every block meets a dirty one.
func TestFringeMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, fam := range fringeFamilies() {
		var s Scratch
		for m := 1; m <= 50; m++ {
			for n := 1; n <= 14; n++ {
				for _, k := range []int{0, 1, 7, 32, 38} {
					for _, pad := range []int{0, 3} { // pad > 0: strided views
						A := matrix.Random(m+pad, k+pad, rng).View(pad, 0, m, k)
						B := matrix.Random(k+pad, n, rng).View(pad, 0, k, n)
						got := matrix.Random(m+pad, n, rng).View(0, 0, m, n)
						want := got.Clone()
						packedMul(&s, fam.mk, m, n, k, A.Data, A.Stride, B.Data, B.Stride, got.Data, got.Stride)
						fringeOracle(fam.mk, m, n, k, A.Data, A.Stride, B.Data, B.Stride, want.Data, want.Stride)
						for j := 0; j < n; j++ {
							for i := 0; i < m; i++ {
								if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
									t.Fatalf("%s %dx%dx%d pad %d: C(%d,%d) is %v, the scalar loop gives %v",
										fam.name, m, n, k, pad, i, j, g, w)
								}
							}
						}
					}
				}
			}
		}
	}
}
