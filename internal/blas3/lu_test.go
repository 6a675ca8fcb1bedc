package blas3

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// applyPiv returns P·A for the factorization's pivot sequence.
func applyPiv(f *LU, A *matrix.Dense) *matrix.Dense {
	p := A.Clone()
	for i := 0; i < len(f.Piv); i++ {
		if f.Piv[i] != i {
			swapRows(p, i, f.Piv[i])
		}
	}
	return p
}

// reconstruct computes L·U from the packed factorization.
func reconstruct(f *LU) *matrix.Dense {
	n := f.LU.Rows
	L := matrix.Identity(n)
	U := matrix.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i > j {
				L.Set(i, j, f.LU.At(i, j))
			} else {
				U.Set(i, j, f.LU.At(i, j))
			}
		}
	}
	lu := matrix.New(n, n)
	matrix.RefMulAdd(lu, L, U)
	return lu
}

func TestLUFactorsPA(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{3, 16, 64, 65, 100, 200, 257, 513} { // up to three panel levels
		A := matrix.Random(n, n, rng)
		f, err := Factor(pool, testOpts, A)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		pa := applyPiv(f, A)
		lu := reconstruct(f)
		if diff := matrix.MaxAbsDiff(lu, pa); diff > 1e-10*float64(n) {
			t.Errorf("n=%d: ‖L·U − P·A‖ = %g", n, diff)
		}
	}
}

func TestLUSolve(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(2))
	n := 150
	A := matrix.Random(n, n, rng)
	for i := 0; i < n; i++ {
		A.Set(i, i, A.At(i, i)+4) // diagonally dominant-ish: well conditioned
	}
	B := matrix.Random(n, 5, rng)
	f, err := Factor(pool, testOpts, A)
	if err != nil {
		t.Fatal(err)
	}
	X := B.Clone()
	if err := f.Solve(pool, testOpts, X); err != nil {
		t.Fatal(err)
	}
	res := B.Clone()
	matrix.RefGEMM(false, false, -1, A, X, 1, res)
	if res.MaxAbs() > 1e-9 {
		t.Fatalf("solve residual %g", res.MaxAbs())
	}
}

func TestLUPivotingHandlesZeroPivot(t *testing.T) {
	// A matrix whose (0,0) entry is zero requires a row interchange.
	pool := sched.NewPool(1)
	defer pool.Close()
	A := matrix.New(3, 3)
	vals := [3][3]float64{{0, 1, 2}, {3, 4, 5}, {6, 7, 9}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			A.Set(i, j, vals[i][j])
		}
	}
	f, err := Factor(pool, testOpts, A)
	if err != nil {
		t.Fatal(err)
	}
	pa := applyPiv(f, A)
	if !matrix.Equal(reconstruct(f), pa, 1e-12) {
		t.Fatal("pivoted factorization wrong")
	}
	// det = -(0·…) compute directly: det of vals is 0*(4*9-5*7) - 1*(27-30) + 2*(21-24) = 3 - 6 = -3.
	if math.Abs(f.Det()-(-3)) > 1e-12 {
		t.Fatalf("det = %g, want -3", f.Det())
	}
}

func TestLUSingularRejected(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	// Exactly singular: a zero column stays exactly zero through every
	// elimination update (L⁻¹·0 = 0 and A22 −= A21·0), so the pivot
	// search finds an exact zero. (A merely rank-deficient float matrix
	// would leave rounding-sized pivots instead — the same behavior as
	// LAPACK's getrf.)
	rng := rand.New(rand.NewSource(3))
	A := matrix.Random(70, 70, rng)
	for i := 0; i < 70; i++ {
		A.Set(i, 41, 0)
	}
	if _, err := Factor(pool, testOpts, A); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

// deepColumn is a column of a 300-wide factorization that the recursion
// reaches through two right halves: 300 → [150, 300) → [225, 300) →
// [262, 300).
const deepN, deepColumn = 300, 270

// TestLUZeroPivotInRightSubPanel: a diagonal entry that is exactly zero
// when its column comes up, inside a recursed right sub-panel, is
// pivoted away. The column is zero above the diagonal, so no update
// touches the rows below.
func TestLUZeroPivotInRightSubPanel(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(5))
	A := matrix.Random(deepN, deepN, rng)
	for i := 0; i <= deepColumn; i++ {
		A.Set(i, deepColumn, 0)
	}
	f, err := Factor(pool, testOpts, A)
	if err != nil {
		t.Fatal(err)
	}
	if f.Piv[deepColumn] == deepColumn {
		t.Fatalf("column %d kept its zero pivot", deepColumn)
	}
	if diff := matrix.MaxAbsDiff(reconstruct(f), applyPiv(f, A)); diff > 1e-10*deepN {
		t.Fatalf("‖L·U − P·A‖ = %g", diff)
	}
}

// TestLUSingularInRightSubPanel: an exactly zero column met inside a
// recursed right sub-panel is an error that names it, and A — which
// Factor clones — is untouched.
func TestLUSingularInRightSubPanel(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(6))
	A := matrix.Random(deepN, deepN, rng)
	for i := 0; i < deepN; i++ {
		A.Set(i, deepColumn, 0)
	}
	before := hashBits(A)
	f, err := Factor(pool, testOpts, A)
	if f != nil || err == nil || !strings.Contains(err.Error(), "singular at column 270") {
		t.Fatalf("got (%v, %v), want a singular-column error", f, err)
	}
	if hashBits(A) != before {
		t.Fatal("a failed factorization wrote to A")
	}
}

// TestLUDetOfPermutation: a scaled cyclic shift of n rows is n−1
// interchanges, so its determinant is (−1)ⁿ⁻¹ times the product of the
// scales — exactly, since every entry is a power of two.
func TestLUDetOfPermutation(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	for _, n := range []int{130, 131} {
		A, want := matrix.New(n, n), 1.0
		for j := 0; j < n; j++ {
			v := 1.0
			if j%40 == 7 {
				v = 2
			}
			A.Set((j+1)%n, j, v)
			want *= v
		}
		if n%2 == 0 {
			want = -want
		}
		f, err := Factor(pool, testOpts, A)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Det(); got != want {
			t.Errorf("n=%d: det = %g, want %g", n, got, want)
		}
	}
}

func TestLUNonSquareRejected(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	if _, err := Factor(pool, testOpts, matrix.New(3, 4)); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestLUDetIdentityAndScaling(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	f, err := Factor(pool, testOpts, matrix.Identity(80))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-1) > 1e-12 {
		t.Fatalf("det(I) = %g", f.Det())
	}
	A := matrix.Identity(80)
	A.Set(0, 0, 5)
	A.Set(33, 33, -2)
	f, err = Factor(pool, testOpts, A)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-(-10)) > 1e-10 {
		t.Fatalf("det = %g, want -10", f.Det())
	}
}

func TestLUPropertyRandom(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		A := matrix.Random(n, n, rng)
		f, err := Factor(pool, testOpts, A)
		if err != nil {
			return true // singular by chance: fine
		}
		return matrix.Equal(reconstruct(f), applyPiv(f, A), 1e-9*float64(n))
	}, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDeterminismLU: the packed factors, the pivots and a 48-column
// solve through them are the same bits over every layout and worker
// count.
func TestDeterminismLU(t *testing.T) {
	determinismGrid(t, func(pool *sched.Pool, o core.Options, n int) uint64 {
		rng := rand.New(rand.NewSource(4))
		A, X := matrix.Random(n, n, rng), matrix.Random(n, 48, rng)
		f, err := Factor(pool, o, A)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Solve(pool, o, X); err != nil {
			t.Fatal(err)
		}
		piv := matrix.New(n, 1)
		for i, p := range f.Piv {
			piv.Data[i] = float64(p)
		}
		return hashBits(f.LU, piv, X)
	})
}
