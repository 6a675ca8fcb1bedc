package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/matrix"
	"repro/internal/sched"
)

// Sentinel errors of the multiplication driver. They classify every
// way a GEMM call can fail *as an error*; panics escaping the
// recursion are converted into *sched.TaskError at the public entry
// points, so no public API panics or returns garbage. Test with
// errors.Is.
var (
	// ErrNonFinite marks a NaN or infinite alpha/beta scalar. Blindly
	// scaling with a non-finite factor would silently poison C, so the
	// call is rejected up front.
	ErrNonFinite = errors.New("core: non-finite scalar")
	// ErrDimension marks operand shapes that do not conform, and a
	// dimension or tiling request whose padded extent would overflow or
	// is absurdly large — the call is rejected before any allocation
	// happens.
	ErrDimension = errors.New("core: dimension out of range")
	// ErrMemBudget is returned when even the smallest-footprint rung of
	// the degradation ladder exceeds Options.MemBudget.
	ErrMemBudget = errors.New("core: memory budget exceeded")
)

// conform is the one scalar-and-shape check behind every entry point,
// run before C is touched: α and β finite, op(A) m×k against op(B)
// kb×n, and C the product's m×n.
func conform(alpha, beta float64, m, k, kb, n int, C *matrix.Dense) error {
	if C == nil {
		return fmt.Errorf("%w: nil C", ErrDimension)
	}
	if !isFinite(alpha) || !isFinite(beta) {
		return fmt.Errorf("%w: alpha=%v, beta=%v", ErrNonFinite, alpha, beta)
	}
	if kb != k {
		return fmt.Errorf("%w: inner dimensions disagree: op(A) is %dx%d, op(B) is %dx%d", ErrDimension, m, k, kb, n)
	}
	if C.Rows != m || C.Cols != n {
		return fmt.Errorf("%w: C is %dx%d, want %dx%d", ErrDimension, C.Rows, C.Cols, m, n)
	}
	return nil
}

// recoveredError converts a value recovered at a public API boundary
// into a typed error. Scheduler aggregates pass through unchanged (the
// worker-side stacks are already captured); a raw panic — from planning
// or admission, which run outside the call's scheduler run, or inside a
// batch member's own boundary — is wrapped with the stack at the
// boundary.
func recoveredError(r any) error {
	switch e := r.(type) {
	case *sched.TaskError:
		return e
	case *sched.PanicError:
		return &sched.TaskError{Panics: []*sched.PanicError{e}}
	default:
		return &sched.TaskError{Panics: []*sched.PanicError{{Value: r, Stack: debug.Stack()}}}
	}
}

// paddedDims validates and computes the padded extents tm<<d, tk<<d,
// tn<<d of one block multiplication, rejecting tilings whose extents or
// operand footprints would overflow or exceed any plausible in-memory
// matrix. The bounds are generous (2^30 elements per side, 2^34
// elements per operand ≈ 128 GiB) — anything larger is a corrupted or
// adversarial request, not a workload.
func paddedDims(d uint, tm, tk, tn int) (mp, kp, np int, err error) {
	const (
		maxSide  = 1 << 30
		maxElems = int64(1) << 34
	)
	if tm <= 0 || tk <= 0 || tn <= 0 || d > 30 {
		return 0, 0, 0, fmt.Errorf("%w: tiling %dx%dx%d at depth %d", ErrDimension, tm, tk, tn, d)
	}
	for _, t := range [3]int{tm, tk, tn} {
		if t > maxSide>>d {
			return 0, 0, 0, fmt.Errorf("%w: padded extent %d<<%d overflows", ErrDimension, t, d)
		}
	}
	mp, kp, np = tm<<d, tk<<d, tn<<d
	if int64(mp)*int64(kp) > maxElems || int64(kp)*int64(np) > maxElems || int64(mp)*int64(np) > maxElems {
		return 0, 0, 0, fmt.Errorf("%w: padded operands %dx%d, %dx%d, %dx%d exceed %d elements",
			ErrDimension, mp, kp, kp, np, mp, np, maxElems)
	}
	return mp, kp, np, nil
}

// isFinite reports whether x is neither NaN nor ±Inf without importing
// math on the hot path (x-x is 0 for finite values, NaN otherwise).
func isFinite(x float64) bool { return x-x == 0 }
