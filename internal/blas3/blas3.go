// Package blas3 layers the rest of the Level 3 BLAS — and the recursive
// Cholesky and LU factorizations — on top of the paper's fast parallel
// matrix multiplication, following the observation the paper cites from
// the ATLAS project ("all of these routines can be implemented
// efficiently given a fast matrix multiplication routine") and
// Gustavson's recursive variable blocking for dense linear algebra.
//
// Every routine here is a quadrant recursion whose heavy lifting is a
// GEMM call executed over the configured recursive layout; the recursion
// bottoms out on a small canonical block solved directly. This is
// exactly the structure the paper's Section 6 positions as future
// consumers of recursive layouts. There is one triangular recursion
// (tri) with one base case (triBase): TRSM, TRMM, Cholesky's panel
// solve, LU's U12 solve and both solves of LU.Solve are calls of it.
package blas3

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// baseSize is the block size at which the recursions switch to direct
// (non-recursive) computation: small enough that the direct kernels stay
// in cache, large enough that GEMM calls dominate.
const baseSize = 64

// gemm is the bridge to the recursive multiplication core.
func gemm(pool *sched.Pool, o core.Options, transA, transB bool, alpha float64,
	A, B *matrix.Dense, beta float64, C *matrix.Dense) error {
	_, err := core.GEMM(pool, o, transA, transB, alpha, A, B, beta, C)
	return err
}

// shape is the one refusal behind every entry point: T must be square
// and op(B) must have as many rows as T (an entry point with a single
// operand passes it twice). A nil operand or a shape that does not
// conform is core.ErrDimension, before anything is touched.
func shape(op string, T, B *matrix.Dense, transB bool) error {
	if T == nil || B == nil {
		return fmt.Errorf("%w: blas3: %s of a nil matrix", core.ErrDimension, op)
	}
	rows := B.Rows
	if transB {
		rows = B.Cols
	}
	if T.Rows != T.Cols || rows != T.Rows {
		return fmt.Errorf("%w: blas3: %s of a %dx%d matrix against %d rows", core.ErrDimension, op, T.Rows, T.Cols, rows)
	}
	return nil
}

// transposeInto stores srcᵀ in dst.
func transposeInto(dst, src *matrix.Dense) {
	for j := 0; j < src.Cols; j++ {
		for i, v := range src.Data[j*src.Stride : j*src.Stride+src.Rows] {
			dst.Data[i*dst.Stride+j] = v
		}
	}
}

// SYRK computes C ← α·A·Aᵀ + β·C (trans == false) or C ← α·Aᵀ·A + β·C
// (trans == true), exploiting symmetry: only the products above the
// block diagonal are computed with GEMM, and the mirror blocks are
// copied. C must be square and is fully updated (both triangles).
//
// The diagonal base case gemm(trans, !trans, α, A, A, β, C) presents
// both operand slots as the same storage with opposite trans flags; the
// core driver detects this and serves the second operand by transposing
// the first pack inside the layout (Stats.PackReused), so each diagonal
// block pays one conversion, not two. The off-diagonal GEMMs draw their
// packed buffers from the core's recycling pool, as do Cholesky's and
// LU's — repeated factorizations allocate their tiled buffers once.
func SYRK(pool *sched.Pool, o core.Options, trans bool, alpha float64, A *matrix.Dense, beta float64, C *matrix.Dense) error {
	if err := shape("SYRK", C, A, trans); err != nil {
		return err
	}
	return syrk(pool, o, trans, alpha, A, beta, C)
}

func syrk(pool *sched.Pool, o core.Options, trans bool, alpha float64, A *matrix.Dense, beta float64, C *matrix.Dense) error {
	n := C.Rows
	if n <= baseSize {
		return gemm(pool, o, trans, !trans, alpha, A, A, beta, C)
	}
	h := n / 2
	// Split the "long" dimension of A into the two halves that generate
	// the block rows/columns of C.
	var a1, a2 *matrix.Dense
	if trans {
		a1 = A.View(0, 0, A.Rows, h)
		a2 = A.View(0, h, A.Rows, n-h)
	} else {
		a1 = A.View(0, 0, h, A.Cols)
		a2 = A.View(h, 0, n-h, A.Cols)
	}
	c21 := C.View(h, 0, n-h, h)
	if err := syrk(pool, o, trans, alpha, a1, beta, C.View(0, 0, h, h)); err != nil {
		return err
	}
	if err := syrk(pool, o, trans, alpha, a2, beta, C.View(h, h, n-h, n-h)); err != nil {
		return err
	}
	// C21 = α·A2·A1ᵀ + β·C21 (or the trans analogue); C12 mirrors it.
	if err := gemm(pool, o, trans, !trans, alpha, a2, a1, beta, c21); err != nil {
		return err
	}
	transposeInto(C.View(0, h, h, n-h), c21)
	return nil
}

// TRSM solves op(L)·X = α·B for X in place (X overwrites B), where L is
// lower triangular when upper == false and upper triangular otherwise.
// This is the left-side variant (side == 'L' in BLAS terms).
func TRSM(pool *sched.Pool, o core.Options, upper, transL bool, alpha float64, L, B *matrix.Dense) error {
	if err := shape("TRSM", L, B, false); err != nil {
		return err
	}
	B.Scale(alpha)
	return tri(pool, o, triOp{solve: true, upper: upper, trans: transL}, L, B)
}

// TRMM computes B ← α·op(L)·B in place for a triangular L (left side).
func TRMM(pool *sched.Pool, o core.Options, upper, transL bool, alpha float64, L, B *matrix.Dense) error {
	if err := shape("TRMM", L, B, false); err != nil {
		return err
	}
	if err := tri(pool, o, triOp{upper: upper, trans: transL}, L, B); err != nil {
		return err
	}
	B.Scale(alpha)
	return nil
}

// triOp names one use of the triangular recursion: B ← op(T)⁻¹·B
// (solve) or B ← op(T)·B, for T stored upper or lower and read
// transposed or not. unit, which only a solve honours, takes the
// diagonal as ones and never reads the stored one — the L of a packed
// LU factorization, whose diagonal slots hold U's.
type triOp struct{ solve, upper, trans, unit bool }

// tri is the package's one triangular recursion. Split op(T) at n/2
// into diagonal blocks 0 and 1 and name them (p, q) = (1, 0) when op(T)
// is upper triangular and (0, 1) when it is lower: block q of the
// result depends on block p of B through op(T)'s one off-diagonal block
// off = op(T)[q, p], which is stored at (q, p), or at (p, q) when T is
// read transposed. A solve finishes X_p before eliminating it from B_q,
//
//	tri(p); B_q −= off·X_p; tri(q)
//
// and a multiply, which must read B_p before overwriting it, runs the
// other way: tri(q); B_q += off·B_p; tri(p).
func tri(pool *sched.Pool, o core.Options, op triOp, T, B *matrix.Dense) error {
	n := T.Rows
	if n <= baseSize {
		triBase(op, T, B)
		return nil
	}
	lo, sz := [2]int{0, n / 2}, [2]int{n / 2, n - n/2}
	t := func(r, c int) *matrix.Dense { return T.View(lo[r], lo[c], sz[r], sz[c]) }
	b := [2]*matrix.Dense{B.View(0, 0, sz[0], B.Cols), B.View(lo[1], 0, sz[1], B.Cols)}
	p, q := 0, 1
	if op.upper != op.trans {
		p, q = 1, 0
	}
	off := t(q, p)
	if op.trans {
		off = t(p, q)
	}
	first, second, sign := q, p, 1.0
	if op.solve {
		first, second, sign = p, q, -1
	}
	if err := tri(pool, o, op, t(first, first), b[first]); err != nil {
		return err
	}
	if err := gemm(pool, o, op.trans, false, sign, off, b[p], 1, b[q]); err != nil {
		return err
	}
	return tri(pool, o, op, t(second, second), b[second])
}

// triBase is the recursion's base case: one substitution loop on column
// slices of B. Row i of op(T) is row[k*sk] over k, and its part off the
// diagonal is k in [0, i) when op(T) is lower and (i, n) when it is
// upper; a multiply takes the diagonal term too. A solve walks the rows
// so that every b[k] it reads is already solved (a lower op(T) from the
// top, an upper one from the bottom), a multiply the other way so that
// every b[k] it reads is still the operand's. Each element accumulates
// its terms in ascending k, whatever the orientation, and that chain of
// dependent additions is what the loop waits on — so it takes two
// columns a pass. An odd last column is its own partner: both chains
// then read and store the same bits.
func triBase(op triOp, T, B *matrix.Dense) {
	n, effUpper := T.Rows, op.upper != op.trans
	si, sk := 1, T.Stride
	if op.trans {
		si, sk = sk, si
	}
	sign := 1.0
	if op.solve {
		sign = -1
	}
	for c := 0; c < B.Cols; c += 2 {
		b0 := B.Data[c*B.Stride : c*B.Stride+n]
		b1 := b0
		if c+1 < B.Cols {
			b1 = B.Data[(c+1)*B.Stride : (c+1)*B.Stride+n]
		}
		for r := 0; r < n; r++ {
			i := r
			if op.solve == effUpper {
				i = n - 1 - r
			}
			row := T.Data[i*si:]
			lo, hi := 0, i
			if effUpper {
				lo, hi = i+1, n
			}
			s0, s1 := b0[i], b1[i]
			if !op.solve {
				s0, s1 = 0, 0
				lo, hi = min(lo, i), max(hi, i+1)
			}
			for k := lo; k < hi; k++ {
				t := sign * row[k*sk]
				s0 += t * b0[k]
				s1 += t * b1[k]
			}
			if op.solve && !op.unit {
				s0, s1 = s0/row[i*sk], s1/row[i*sk]
			}
			b0[i], b1[i] = s0, s1
		}
	}
}

// Cholesky factors a symmetric positive-definite A (only the lower
// triangle is read) into L·Lᵀ, returning lower-triangular L. This is
// Gustavson's recursive blocking: L11 = chol(A11); L21 = A21·L11⁻ᵀ
// (TRSM); A22 ← A22 − L21·L21ᵀ (SYRK); recurse on A22. Every flop
// beyond the base case flows through the recursive-layout GEMM.
func Cholesky(pool *sched.Pool, o core.Options, A *matrix.Dense) (*matrix.Dense, error) {
	if err := shape("Cholesky", A, A, false); err != nil {
		return nil, err
	}
	n := A.Rows
	L := matrix.New(n, n)
	// Work on a copy of the lower triangle.
	for j := 0; j < n; j++ {
		copy(L.Data[j*L.Stride+j:j*L.Stride+n], A.Data[j*A.Stride+j:j*A.Stride+n])
	}
	if err := chol(pool, o, L); err != nil {
		return nil, err
	}
	// Zero the strict upper triangle (scratch space during recursion).
	for j := 1; j < n; j++ {
		clear(L.Data[j*L.Stride : j*L.Stride+j])
	}
	return L, nil
}

func chol(pool *sched.Pool, o core.Options, A *matrix.Dense) error {
	n := A.Rows
	if n <= baseSize {
		return cholBase(A)
	}
	h := n / 2
	a11 := A.View(0, 0, h, h)
	a21 := A.View(h, 0, n-h, h)
	a22 := A.View(h, h, n-h, n-h)
	if err := chol(pool, o, a11); err != nil {
		return err
	}
	// L21 = A21·L11⁻ᵀ: solve X·L11ᵀ = A21, i.e. L11·Xᵀ = A21ᵀ. Using
	// the left-side solve on the transpose costs one transposition each
	// way; acceptable at quadrant granularity.
	a21t := a21.Transpose()
	if err := tri(pool, o, triOp{solve: true}, a11, a21t); err != nil {
		return err
	}
	transposeInto(a21, a21t)
	// A22 ← A22 − L21·L21ᵀ (lower triangle suffices, but SYRK updates
	// the full block; the upper scratch is zeroed at the end).
	if err := syrk(pool, o, false, -1, a21, 1, a22); err != nil {
		return err
	}
	return chol(pool, o, a22)
}

// cholBase is the direct left-looking Cholesky of a small block, one
// column at a time: column j takes its updates from the columns before
// it in ascending order, then is scaled by the root of its diagonal.
func cholBase(A *matrix.Dense) error {
	n, ld := A.Rows, A.Stride
	for j := 0; j < n; j++ {
		cj := A.Data[j*ld : j*ld+n]
		for k := 0; k < j; k++ {
			ck := A.Data[k*ld : k*ld+n]
			l := ck[j]
			for i := j; i < n; i++ {
				cj[i] -= ck[i] * l
			}
		}
		d := cj[j]
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("blas3: matrix not positive definite (pivot %d: %g)", j, d)
		}
		d = math.Sqrt(d)
		cj[j] = d
		for i := j + 1; i < n; i++ {
			cj[i] /= d
		}
	}
	return nil
}
