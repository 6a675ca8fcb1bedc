package blas3

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// LU is the result of an LU factorization with partial pivoting:
// P·A = L·U, with L unit lower triangular and U upper triangular, both
// packed into LU (L's unit diagonal is implicit). Piv records the row
// interchanges: row i was swapped with row Piv[i] at step i.
type LU struct {
	LU  *matrix.Dense
	Piv []int
}

// Factor computes the LU factorization of A with partial pivoting as
// one recursive panel factorization at full width: factor the left half
// of the columns, solve the U12 block with the triangular recursion,
// update the rows below it with GEMM (over the configured recursive
// layout), and recurse on the right half. This is the recursive getrf
// (Gustavson; Toledo) on top of the paper's multiply — together with
// Cholesky it demonstrates that recursive layouts carry a full dense
// solver stack, the direction the paper's related-work section points
// to.
func Factor(pool *sched.Pool, o core.Options, A *matrix.Dense) (*LU, error) {
	if err := shape("LU", A, A, false); err != nil {
		return nil, err
	}
	n := A.Rows
	f := &LU{LU: A.Clone(), Piv: make([]int, n)}
	for i := range f.Piv {
		f.Piv[i] = i
	}
	if err := luPanel(pool, o, f.LU, f.Piv, 0, n); err != nil {
		return nil, err
	}
	return f, nil
}

// luPanel factors the tall panel of a whose diagonal starts at
// (off, off) — rows [off, a.Rows), columns [off, off+w) — with partial
// pivoting. Row swaps apply to full rows of a, and piv is indexed in
// full-matrix coordinates.
func luPanel(pool *sched.Pool, o core.Options, a *matrix.Dense, piv []int, off, w int) error {
	if w <= baseSize {
		return luPanelBase(a, piv, off, w)
	}
	h := w / 2
	if err := luPanel(pool, o, a, piv, off, h); err != nil {
		return err
	}
	// A12 ← L11⁻¹·A12 on the pivoted rows, then A22 ← A22 − A21·A12.
	a12 := a.View(off, off+h, h, w-h)
	if err := tri(pool, o, triOp{solve: true, unit: true}, a.View(off, off, h, h), a12); err != nil {
		return err
	}
	a21 := a.View(off+h, off, a.Rows-off-h, h)
	a22 := a.View(off+h, off+h, a.Rows-off-h, w-h)
	if err := gemm(pool, o, false, false, -1, a21, a12, 1, a22); err != nil {
		return err
	}
	return luPanel(pool, o, a, piv, off+h, w-h)
}

// luPanelBase is the unblocked right-looking panel factorization with
// partial pivoting over rows [off, a.Rows), columns [off, off+w).
func luPanelBase(a *matrix.Dense, piv []int, off, w int) error {
	rows, ld := a.Rows, a.Stride
	for k := off; k < off+w; k++ {
		ck := a.Data[k*ld : k*ld+rows]
		// Pivot search in column k.
		p, best := k, math.Abs(ck[k])
		for i := k + 1; i < rows; i++ {
			if v := math.Abs(ck[i]); v > best {
				best, p = v, i
			}
		}
		if best == 0 {
			return fmt.Errorf("blas3: LU is singular at column %d", k)
		}
		if p != k {
			swapRows(a, k, p)
			piv[k] = p
		}
		d := ck[k]
		for i := k + 1; i < rows; i++ {
			ck[i] /= d
		}
		for j := k + 1; j < off+w; j++ {
			cj := a.Data[j*ld : j*ld+rows]
			u := cj[k]
			for i := k + 1; i < rows; i++ {
				cj[i] -= ck[i] * u
			}
		}
	}
	return nil
}

// swapRows exchanges two full rows.
func swapRows(a *matrix.Dense, r1, r2 int) {
	for j := 0; j < a.Cols; j++ {
		col := a.Data[j*a.Stride:]
		col[r1], col[r2] = col[r2], col[r1]
	}
}

// Solve solves A·X = B using the factorization; B is overwritten with X.
func (f *LU) Solve(pool *sched.Pool, o core.Options, B *matrix.Dense) error {
	if err := shape("LU solve", f.LU, B, false); err != nil {
		return err
	}
	// Apply the pivots: B ← P·B.
	for i, p := range f.Piv {
		if p != i {
			swapRows(B, i, p)
		}
	}
	// Forward solve with unit L, then backward with U.
	if err := tri(pool, o, triOp{solve: true, unit: true}, f.LU, B); err != nil {
		return err
	}
	return tri(pool, o, triOp{solve: true, upper: true}, f.LU, B)
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := 1.0
	for i, p := range f.Piv {
		d *= f.LU.Data[i*f.LU.Stride+i]
		if p != i {
			d = -d
		}
	}
	return d
}
