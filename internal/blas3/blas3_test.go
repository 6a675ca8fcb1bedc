package blas3

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
)

var testOpts = core.Options{Curve: layout.ZMorton, Alg: core.Standard}

// spd builds a well-conditioned symmetric positive-definite matrix
// AᵀA + n·I.
func spd(n int, rng *rand.Rand) *matrix.Dense {
	a := matrix.Random(n, n, rng)
	s := matrix.New(n, n)
	matrix.RefGEMM(true, false, 1, a, a, 0, s)
	for i := 0; i < n; i++ {
		s.Set(i, i, s.At(i, i)+float64(n))
	}
	return s
}

// lowerTri builds a well-conditioned lower-triangular matrix.
func lowerTri(n int, rng *rand.Rand) *matrix.Dense {
	l := matrix.New(n, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			l.Set(i, j, rng.Float64()-0.5)
		}
		l.Set(j, j, 2+rng.Float64())
	}
	return l
}

// hashBits is FNV-1a over the bit patterns of the matrices' elements,
// column by column (the form of internal/core/table_test.go).
func hashBits(ms ...*matrix.Dense) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range ms {
		for j := 0; j < m.Cols; j++ {
			for i := 0; i < m.Rows; i++ {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.At(i, j)))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

func TestSYRKMatchesReference(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(1))
	for _, trans := range []bool{false, true} {
		for _, n := range []int{5, 64, 100, 150} {
			k := 37
			var A *matrix.Dense
			if trans {
				A = matrix.Random(k, n, rng)
			} else {
				A = matrix.Random(n, k, rng)
			}
			C := matrix.Random(n, n, rng)
			// Symmetrize C so the mirrored copy is consistent with beta.
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					C.Set(j, i, C.At(i, j))
				}
			}
			want := C.Clone()
			matrix.RefGEMM(trans, !trans, 1.5, A, A, -0.5, want)
			if err := SYRK(pool, testOpts, trans, 1.5, A, -0.5, C); err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(C, want, 1e-11) {
				t.Errorf("trans=%v n=%d: SYRK wrong (max diff %g)", trans, n, matrix.MaxAbsDiff(C, want))
			}
		}
	}
}

func TestSYRKResultSymmetric(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(2))
	A := matrix.Random(130, 40, rng)
	C := matrix.New(130, 130)
	if err := SYRK(pool, testOpts, false, 1, A, 0, C); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(C, C.Transpose(), 1e-12) {
		t.Fatal("SYRK result not symmetric")
	}
}

// forEachTri runs f on a well-conditioned triangular factor in every
// orientation of the one recursion — one base block, the sizes either
// side of it, and two and three levels with odd halves — against 1 and
// 48 right-hand sides.
func forEachTri(seed int64, f func(name string, upper, trans bool, T, B *matrix.Dense)) {
	rng := rand.New(rand.NewSource(seed))
	for _, upper := range []bool{false, true} {
		for _, trans := range []bool{false, true} {
			for _, n := range []int{1, 63, 64, 65, 130, 300} {
				for _, cols := range []int{1, 48} {
					T := lowerTri(n, rng)
					if upper {
						T = T.Transpose()
					}
					f(fmt.Sprintf("upper=%v trans=%v n=%d cols=%d", upper, trans, n, cols),
						upper, trans, T, matrix.Random(n, cols, rng))
				}
			}
		}
	}
}

func TestTRSMSolves(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	forEachTri(3, func(name string, upper, trans bool, L, B *matrix.Dense) {
		X := B.Clone()
		if err := TRSM(pool, testOpts, upper, trans, 2, L, X); err != nil {
			t.Fatal(err)
		}
		// Verify op(L)·X == 2·B.
		check := matrix.New(B.Rows, B.Cols)
		matrix.RefGEMM(trans, false, 1, L, X, 0, check)
		want := B.Clone()
		want.Scale(2)
		if !matrix.Equal(check, want, 1e-9) {
			t.Errorf("%s: residual %g", name, matrix.MaxAbsDiff(check, want))
		}
	})
}

// TestUnitSolveIgnoresDiagonal: a unit solve takes the diagonal as ones
// and does not read what is stored there — in a packed LU those slots
// hold U's diagonal.
func TestUnitSolveIgnoresDiagonal(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	forEachTri(10, func(name string, upper, trans bool, T, B *matrix.Dense) {
		n := T.Rows
		ones, garbage := T.Clone(), T
		for i := 0; i < n; i++ {
			ones.Set(i, i, 1)
			garbage.Set(i, i, math.NaN())
		}
		X := B.Clone()
		if err := tri(pool, testOpts, triOp{solve: true, upper: upper, trans: trans, unit: true}, garbage, X); err != nil {
			t.Fatal(err)
		}
		check := matrix.New(n, B.Cols)
		matrix.RefGEMM(trans, false, 1, ones, X, 0, check)
		if !matrix.Equal(check, B, 1e-9) { // a NaN that was read compares as +Inf
			t.Errorf("%s: unit solve residual %g", name, matrix.MaxAbsDiff(check, B))
		}
	})
}

func TestTRMMMatchesReference(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	forEachTri(4, func(name string, upper, trans bool, L, B *matrix.Dense) {
		got := B.Clone()
		if err := TRMM(pool, testOpts, upper, trans, -1, L, got); err != nil {
			t.Fatal(err)
		}
		want := matrix.New(B.Rows, B.Cols)
		matrix.RefGEMM(trans, false, -1, L, B, 0, want)
		if !matrix.Equal(got, want, 1e-10) {
			t.Errorf("%s: TRMM wrong (max diff %g)", name, matrix.MaxAbsDiff(got, want))
		}
	})
}

func TestTRMMTRSMInverse(t *testing.T) {
	// TRSM must invert TRMM: X = L⁻¹·(L·B) == B.
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(5))
	n := 150
	L := lowerTri(n, rng)
	B := matrix.Random(n, 11, rng)
	X := B.Clone()
	if err := TRMM(pool, testOpts, false, false, 1, L, X); err != nil {
		t.Fatal(err)
	}
	if err := TRSM(pool, testOpts, false, false, 1, L, X); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(X, B, 1e-10) {
		t.Fatalf("TRSM∘TRMM != id (max diff %g)", matrix.MaxAbsDiff(X, B))
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{4, 64, 100, 200} {
		A := spd(n, rng)
		L, err := Cholesky(pool, testOpts, A)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// L must be lower triangular with positive diagonal.
		for j := 0; j < n; j++ {
			if L.At(j, j) <= 0 {
				t.Fatalf("n=%d: non-positive diagonal at %d", n, j)
			}
			for i := 0; i < j; i++ {
				if L.At(i, j) != 0 {
					t.Fatalf("n=%d: upper triangle not zero at (%d,%d)", n, i, j)
				}
			}
		}
		// L·Lᵀ must reconstruct A.
		rec := matrix.New(n, n)
		matrix.RefGEMM(false, true, 1, L, L, 0, rec)
		if diff := matrix.MaxAbsDiff(rec, A); diff > 1e-9*float64(n) {
			t.Errorf("n=%d: ‖L·Lᵀ − A‖ = %g", n, diff)
		}
	}
}

func TestCholeskyOnlyReadsLowerTriangle(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(7))
	A := spd(96, rng)
	// Poison the strict upper triangle: the factorization must ignore it.
	for j := 1; j < 96; j++ {
		for i := 0; i < j; i++ {
			A.Set(i, j, math.NaN())
		}
	}
	L, err := Cholesky(pool, testOpts, A)
	if err != nil {
		t.Fatal(err)
	}
	if L.HasNaN() {
		t.Fatal("Cholesky read the upper triangle")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	A := matrix.Identity(80)
	A.Set(40, 40, -1)
	if _, err := Cholesky(pool, testOpts, A); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestCholeskySolveSystem(t *testing.T) {
	// End-to-end: solve A·x = b via Cholesky + two triangular solves.
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(8))
	n := 150
	A := spd(n, rng)
	b := matrix.Random(n, 3, rng)
	L, err := Cholesky(pool, testOpts, A)
	if err != nil {
		t.Fatal(err)
	}
	x := b.Clone()
	if err := TRSM(pool, testOpts, false, false, 1, L, x); err != nil { // L·y = b
		t.Fatal(err)
	}
	if err := TRSM(pool, testOpts, false, true, 1, L, x); err != nil { // Lᵀ·x = y
		t.Fatal(err)
	}
	// Residual check: A·x ≈ b.
	res := b.Clone()
	matrix.RefGEMM(false, false, -1, A, x, 1, res)
	if res.MaxAbs() > 1e-8 {
		t.Fatalf("solve residual %g", res.MaxAbs())
	}
}

// TestShapeValidation: every entry point refuses a nil operand and a
// shape that does not conform with core.ErrDimension, and never panics.
func TestShapeValidation(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	sq, f := matrix.New(4, 4), &LU{LU: matrix.Identity(4), Piv: []int{0, 1, 2, 3}}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"SYRK shape mismatch", func() error { return SYRK(pool, testOpts, false, 1, matrix.New(4, 2), 0, matrix.New(3, 3)) }},
		{"SYRK trans shape mismatch", func() error { return SYRK(pool, testOpts, true, 1, matrix.New(4, 2), 0, sq) }},
		{"SYRK non-square C", func() error { return SYRK(pool, testOpts, false, 1, matrix.New(4, 2), 0, matrix.New(4, 3)) }},
		{"SYRK nil A", func() error { return SYRK(pool, testOpts, false, 1, nil, 0, sq) }},
		{"SYRK nil C", func() error { return SYRK(pool, testOpts, false, 1, sq, 0, nil) }},
		{"TRSM non-square factor", func() error { return TRSM(pool, testOpts, false, false, 1, matrix.New(4, 3), matrix.New(4, 2)) }},
		{"TRSM dimension mismatch", func() error { return TRSM(pool, testOpts, false, false, 1, sq, matrix.New(5, 2)) }},
		{"TRSM nil factor", func() error { return TRSM(pool, testOpts, false, false, 1, nil, sq) }},
		{"TRSM nil B", func() error { return TRSM(pool, testOpts, false, false, 1, sq, nil) }},
		{"TRMM dimension mismatch", func() error { return TRMM(pool, testOpts, false, false, 1, sq, matrix.New(5, 2)) }},
		{"TRMM nil factor", func() error { return TRMM(pool, testOpts, false, false, 1, nil, sq) }},
		{"TRMM nil B", func() error { return TRMM(pool, testOpts, false, false, 1, sq, nil) }},
		{"Cholesky non-square", func() error { _, err := Cholesky(pool, testOpts, matrix.New(4, 5)); return err }},
		{"Cholesky nil", func() error { _, err := Cholesky(pool, testOpts, nil); return err }},
		{"LU non-square", func() error { _, err := Factor(pool, testOpts, matrix.New(3, 4)); return err }},
		{"LU nil", func() error { _, err := Factor(pool, testOpts, nil); return err }},
		{"LU solve dimension mismatch", func() error { return f.Solve(pool, testOpts, matrix.New(5, 2)) }},
		{"LU solve nil B", func() error { return f.Solve(pool, testOpts, nil) }},
	} {
		if err := c.call(); !errors.Is(err, core.ErrDimension) {
			t.Errorf("%s: got %v, want core.ErrDimension", c.name, err)
		}
	}
}

// determinismGrid runs f over every layout the multiply supports and 1,
// 2 and 4 workers, on sizes of two and three recursion levels with odd
// halves, and fails when the hash f returns is not the same in all
// twelve runs of a size. FastCutoff 1 makes Strassen recurse to single
// tiles; at the default cutoff these sizes would run no fast level.
func determinismGrid(t *testing.T, f func(pool *sched.Pool, o core.Options, n int) uint64) {
	for _, n := range []int{130, 300, 513} {
		ref, seen := uint64(0), false
		for _, w := range []int{1, 2, 4} {
			pool := sched.NewPool(w)
			for _, cv := range []layout.Curve{layout.ColMajor, layout.ZMorton, layout.GrayMorton, layout.Hilbert} {
				h := f(pool, core.Options{Curve: cv, Alg: core.Strassen, FastCutoff: 1}, n)
				if !seen {
					ref, seen = h, true
				} else if h != ref {
					t.Errorf("n=%d %v workers=%d: bits %016x differ from ColMajor on one worker (%016x)", n, cv, w, h, ref)
				}
			}
			pool.Close()
		}
	}
}

// TestDeterminismCholesky: the factor and a 48-column SPD solve through
// it are the same bits over every layout and worker count.
func TestDeterminismCholesky(t *testing.T) {
	determinismGrid(t, func(pool *sched.Pool, o core.Options, n int) uint64 {
		rng := rand.New(rand.NewSource(9))
		A, X := spd(n, rng), matrix.Random(n, 48, rng)
		L, err := Cholesky(pool, o, A)
		if err != nil {
			t.Fatal(err)
		}
		for _, trans := range []bool{false, true} { // L·Y = B, then Lᵀ·X = Y
			if err := TRSM(pool, o, false, trans, 1, L, X); err != nil {
				t.Fatal(err)
			}
		}
		return hashBits(L, X)
	})
}

func TestTRSMProperty(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		cols := 1 + rng.Intn(8)
		L := lowerTri(n, rng)
		B := matrix.Random(n, cols, rng)
		X := B.Clone()
		if err := TRSM(pool, testOpts, false, false, 1, L, X); err != nil {
			return false
		}
		check := matrix.New(n, cols)
		matrix.RefGEMM(false, false, 1, L, X, 0, check)
		return matrix.Equal(check, B, 1e-8)
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCholesky256(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	rng := rand.New(rand.NewSource(1))
	A := spd(256, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(pool, testOpts, A); err != nil {
			b.Fatal(err)
		}
	}
}
