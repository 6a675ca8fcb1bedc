package leaf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// fringeOracle is what packedMul must produce, bit for bit, on every
// family: each element's chain starts from its C element, fringe
// included, and fuses the products in ascending k.
func fringeOracle(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			acc := c[j*ldc+i]
			for p := 0; p < k; p++ {
				acc = math.FMA(a[p*lda+i], b[j*ldb+p], acc)
			}
			c[j*ldc+i] = acc
		}
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

// TestFringeMatchesScalarOracle pins the padded-block fringe to a
// scalar loop (fringeOracle) for every family: every row count through three
// 16-row blocks, every column count through three 4-column blocks, k
// from 0, contiguous tiles and strided views (pad > 0) through the one
// in-place body, one Scratch throughout so that every block meets a
// dirty one.
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
						packedMul(&s, fam.mk, false, m, n, k, A.Data, A.Stride, B.Data, B.Stride, got.Data, got.Stride)
						fringeOracle(m, n, k, A.Data, A.Stride, B.Data, B.Stride, want.Data, want.Stride)
						for j := 0; j < n; j++ {
							for i := 0; i < m; i++ {
								if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
									t.Fatalf("%s %dx%dx%d pad %d: C(%d,%d) is %v, the scalar oracle gives %v",
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
