package main

import (
	"fmt"
	"math"
	"math/rand"

	recmat "repro"
	"repro/internal/matrix"
)

// Output checking. Every check runs outside the timed sections and
// outside setup_s; a failed check fails the op it belongs to.

// probeTol bounds the Freivalds residual and the relative error of a
// full reference comparison or a c_norm.
const probeTol = 1e-10

// matVec returns M·x for a column-major M.
func matVec(M *recmat.Matrix, x []float64) []float64 {
	y := make([]float64, M.Rows)
	for j := 0; j < M.Cols; j++ {
		xj := x[j]
		col := M.Data[j*M.Stride : j*M.Stride+M.Rows]
		for i, v := range col {
			y[i] += v * xj
		}
	}
	return y
}

// freivalds checks C = A·B with a two-vector Freivalds probe:
// ‖Cx − A(Bx)‖∞ / (‖A‖∞‖B‖∞‖x‖∞) ≤ probeTol for both vectors. It costs
// three matrix-vector products per vector, so it can run on full-size
// outputs between timed ops.
func freivalds(A, B, C *recmat.Matrix, rng *rand.Rand) error {
	scale := matrix.NormInf(A) * matrix.NormInf(B)
	if scale == 0 {
		scale = 1
	}
	for v := 0; v < 2; v++ {
		x := make([]float64, B.Cols)
		var xmax float64
		for i := range x {
			x[i] = 2*rng.Float64() - 1
			xmax = math.Max(xmax, math.Abs(x[i]))
		}
		want := matVec(A, matVec(B, x))
		got := matVec(C, x)
		var worst float64
		for i := range got {
			d := math.Abs(got[i] - want[i])
			if d > worst || math.IsNaN(d) {
				worst = d
			}
		}
		if r := worst / (scale * xmax); !(r <= probeTol) {
			return fmt.Errorf("freivalds residual %.3g exceeds %.0g", r, probeTol)
		}
	}
	return nil
}

// refCheck compares got against α·A·B + β·C0 computed by RefGEMM,
// relative to the product's magnitude bound k·max|A|·max|B|.
func refCheck(alpha float64, A, B *recmat.Matrix, beta float64, C0, got *recmat.Matrix) error {
	want := C0.Clone()
	recmat.RefGEMM(false, false, alpha, A, B, beta, want)
	scale := float64(A.Cols)*A.MaxAbs()*B.MaxAbs() + C0.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	if r := recmat.MaxAbsDiff(got, want) / scale; !(r <= probeTol) {
		return fmt.Errorf("reference comparison: relative error %.3g exceeds %.0g", r, probeTol)
	}
	return nil
}

// norm1 is the entrywise 1-norm the daemon reports as c_norm.
func norm1(M *recmat.Matrix) float64 {
	var s float64
	for j := 0; j < M.Cols; j++ {
		for _, v := range M.Data[j*M.Stride : j*M.Stride+M.Rows] {
			s += math.Abs(v)
		}
	}
	return s
}
