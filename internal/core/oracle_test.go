package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// opAt is element (i, j) of op(X).
func opAt(X *matrix.Dense, trans bool, i, j int) float64 {
	if trans {
		return X.At(j, i)
	}
	return X.At(i, j)
}

// chainFrom is element (i, j) of op(A)·op(B) as the ascending-k FMA
// chain from t: the one rounding rule of every register-blocked leaf.
func chainFrom(t float64, ta, tb bool, A, B *matrix.Dense, i, j int) float64 {
	k := A.Cols
	if ta {
		k = A.Rows
	}
	for p := 0; p < k; p++ {
		t = math.FMA(opAt(A, ta, i, p), opAt(B, tb, p, j), t)
	}
	return t
}

// standardOracle is Standard's bitwise specification (DESIGN.md §9) as
// a scalar loop: t is the ascending-k FMA chain from +0, then
// C = fl(α·t) at β = 0 and fl(β·c) + fl(α·t) otherwise, the α multiply
// dropped at α = 1. The conversions keep the compiler from fusing the
// last multiply with the add.
func standardOracle(ta, tb bool, alpha float64, A, B *matrix.Dense, beta float64, C *matrix.Dense) {
	for j := 0; j < C.Cols; j++ {
		for i := 0; i < C.Rows; i++ {
			t := chainFrom(0, ta, tb, A, B, i, j)
			if alpha != 1 {
				t = float64(alpha * t)
			}
			if beta != 0 {
				t = float64(beta*C.At(i, j)) + t
			}
			C.Set(i, j, t)
		}
	}
}

// bitsDiffer counts the elements of got whose bits differ from want's,
// the sign of a zero included.
func bitsDiffer(got, want *matrix.Dense) int {
	n := 0
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				n++
			}
		}
	}
	return n
}

// stridedCopy returns X in a view three rows and one column into larger
// storage, so that its leading dimension is not its row count.
func stridedCopy(X *matrix.Dense, rng *rand.Rand) *matrix.Dense {
	v := matrix.Random(X.Rows+3, X.Cols+1, rng).View(3, 1, X.Rows, X.Cols)
	v.CopyFrom(X)
	return v
}

// oracleRun is one Standard product to hold to the specification: C
// (+)= α·op(A)·op(B) scaled by β, and want, what the specification
// makes of C.
type oracleRun struct {
	ta, tb      bool
	alpha, beta float64
	A, B, C     *matrix.Dense
	want        *matrix.Dense
}

// newOracleRun draws the operands of an m×k×n run; zeros, when set,
// draws every element of A and B from ±0 and ±1e-200, so that every
// product underflows and t is a zero of either sign.
func newOracleRun(m, k, n int, ta, tb bool, alpha, beta float64, zeros bool, rng *rand.Rand) *oracleRun {
	r := &oracleRun{ta: ta, tb: tb, alpha: alpha, beta: beta,
		A: opMat(m, k, ta, rng), B: opMat(k, n, tb, rng), C: matrix.Random(m, n, rng)}
	for _, X := range []*matrix.Dense{r.A, r.B} {
		for i := 0; zeros && i < len(X.Data); i++ {
			X.Data[i] = []float64{math.Copysign(0, -1), 0, -1e-200, 1e-200}[rng.Intn(4)]
		}
	}
	r.want = r.C.Clone()
	standardOracle(ta, tb, alpha, r.A, r.B, beta, r.want)
	if beta == 0 {
		r.C.Fill(math.NaN()) // β = 0 reads no C
	}
	return r
}

// check runs every entry point of the core that runs Standard on r at
// the options' curve and pool, each on a fresh copy of r.C, and reports
// each result whose bits are not the specification's.
func (r *oracleRun) check(t *testing.T, ctx context.Context, pool *sched.Pool, opts Options, strided bool, rng *rand.Rand) {
	t.Helper()
	m, n := r.C.Rows, r.C.Cols
	k := r.A.Cols
	if r.ta {
		k = r.A.Rows
	}
	A, B, fresh := r.A, r.B, r.C.Clone
	if strided {
		A, B = stridedCopy(r.A, rng), stridedCopy(r.B, rng)
		fresh = func() *matrix.Dense { return stridedCopy(r.C, rng) }
	}
	name := fmt.Sprintf("%dx%dx%d %v ta=%v tb=%v α=%g β=%g strided=%v, %d workers",
		m, k, n, opts.Curve, r.ta, r.tb, r.alpha, r.beta, strided, pool.Workers())
	same := func(what string, got *matrix.Dense, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %s: %v", name, what, err)
		}
		if d := bitsDiffer(got, r.want); d != 0 {
			t.Errorf("%s: %s differs from the specification in %d of %d elements", name, what, d, m*n)
		}
	}
	got := fresh()
	_, err := GEMMCtx(ctx, pool, opts, r.ta, r.tb, r.alpha, A, B, r.beta, got)
	same("GEMMCtx", got, err)

	items := []BatchItem{{TransA: r.ta, TransB: r.tb, Alpha: r.alpha, A: A, B: B, Beta: r.beta, C: fresh()},
		{TransA: r.ta, TransB: r.tb, Alpha: r.alpha, A: A, B: B, Beta: r.beta, C: fresh()}}
	_, errs, err := GEMMBatch(ctx, pool, opts, items)
	for i := range items {
		if err == nil {
			err = errs[i]
		}
		same(fmt.Sprintf("GEMMBatch[%d]", i), items[i].C, err)
	}

	got = fresh()
	_, errs, err = GEMMBatchStrided(ctx, pool, opts, r.ta, r.tb, m, k, n, r.alpha, A.Data, A.Stride, len(A.Data),
		B.Data, B.Stride, len(B.Data), r.beta, got.Data, got.Stride, len(got.Data), 1)
	if err == nil {
		err = errs[0]
	}
	same("GEMMBatchStrided", got, err)
	if opts.Curve == layout.ColMajor {
		return // a plan is recursive storage
	}

	// A partner of a plan reads the plan's quadrants.
	pa, err := Prepack(ctx, pool, opts, A, r.ta)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Release()
	pb, err := PrepackConforming(ctx, pool, opts, B, r.tb, pa)
	if err != nil {
		t.Fatal(err)
	}
	got = fresh()
	_, err = GEMMPrepacked(ctx, pool, opts, r.alpha, pa, pb, r.beta, got)
	pb.Release()
	same("Prepack + GEMMPrepacked", got, err)

	got = fresh()
	_, errs, err = GEMMPrepackedBatch(ctx, pool, opts, pa, []PrepackedBatchItem{{TransB: r.tb, Alpha: r.alpha, B: B, Beta: r.beta, C: got}})
	if err == nil {
		err = errs[0]
	}
	same("GEMMPrepackedBatch", got, err)
}

// TestDeterminismStandardOracle holds Standard, on the default kernel,
// to its specification (standardOracle) bit for bit at every entry point
// that runs it: GEMMCtx, GEMMBatch (a wave of two), GEMMBatchStrided,
// Prepack + GEMMPrepacked and GEMMPrepackedBatch on the recursive
// layouts, MulPrepacked against the C-first chain, and the daemon's
// handler (TestDeterminismStandardOracleDaemon). Shapes on and off the
// 8×4 register grid and with m or n in {1, 2, 3, 7} — tiles under one
// register block — over six layouts, four transpositions, α ∈ {1, 1.5},
// β ∈ {0, 0.5, 1} (β = 0 over a C of NaN), 1 and 2 workers, operands
// and C contiguous and strided; and the plan shapes, a wide/lean
// 1024²·1024×48 and 512²·512×16 and the tall operands a plan cuts into
// 63-row tiles, through a plan. And a β = 0 product of zeros of either
// sign: every product underflows, so t is ±0, which fl(α·t) keeps.
func TestDeterminismStandardOracle(t *testing.T) {
	ctx := context.Background()
	var pools []*sched.Pool
	for _, w := range []int{1, 2} {
		p := sched.NewPool(w)
		defer p.Close()
		pools = append(pools, p)
	}
	// (α, β), each pair on every shape
	ab := [][2]float64{{1, 0}, {1.5, 0.5}, {1, 1}, {1.5, 0}, {1, 0.5}, {1.5, 1}}
	shapes := [][3]int{{64, 64, 64}, {96, 40, 32}, {100, 100, 100}, {75, 37, 50}, // m, k, n
		{1, 50, 40}, {2, 33, 64}, {3, 20, 3}, {7, 9, 5}, {40, 30, 1}, {64, 64, 2}, {37, 45, 7}, {512, 512, 3}}
	plans := [][3]int{{1024, 1024, 48}, {512, 512, 16}, {2000, 64, 16}, {10000, 64, 16}, {3000, 200, 8}}
	if testing.Short() || raceEnabled {
		shapes = [][3]int{{64, 64, 64}, {75, 37, 50}, {1, 50, 40}, {3, 20, 3}, {40, 30, 1}, {37, 45, 7}}
		plans = [][3]int{{256, 256, 12}, {600, 64, 16}}
	}
	rng := rand.New(rand.NewSource(491))
	for zi, sh := range [][3]int{{9, 3, 6}, {300, 3, 200}} { // one block stored in place; blocks through the epilogue
		for ti := 0; ti < 4; ti++ {
			for ci, cv := range mulCurves {
				r := newOracleRun(sh[0], sh[1], sh[2], ti&1 != 0, ti&2 != 0, []float64{1, 1.5}[(zi+ci)%2], 0, true, rng)
				for _, pool := range pools {
					r.check(t, ctx, pool, Options{Curve: cv, Alg: Standard}, (ci+ti/2)%2 == 1, rng)
				}
			}
		}
	}
	for si, sh := range shapes {
		for ti := 0; ti < 4; ti++ {
			for ci, cv := range mulCurves {
				x := ab[(si+ti+ci)%len(ab)]
				r := newOracleRun(sh[0], sh[1], sh[2], ti&1 != 0, ti&2 != 0, x[0], x[1], false, rng)
				for _, pool := range pools {
					r.check(t, ctx, pool, Options{Curve: cv, Alg: Standard}, (ci+ti/2)%2 == 1, rng)
				}
			}
		}
	}
	for pi, sh := range plans {
		x := ab[pi%len(ab)]
		r := newOracleRun(sh[0], sh[1], sh[2], false, pi%2 == 1, x[0], x[1], false, rng)
		for _, pool := range pools {
			r.check(t, ctx, pool, Options{Curve: []layout.Curve{layout.ZMorton, layout.Hilbert}[pi%2], Alg: Standard}, false, rng)
		}
	}
}

// TestDeterminismStandardOracleThinPartners holds a partner narrower
// than A's tiles — B and the product tile stored as column-major panels,
// each leaf call a row tile and k run over the block's whole width
// (exec.base) — to Standard's specification at every entry point, on
// the six layouts at 1, 2 and 4 workers: 1024²·1024×48 and 512²·512×16
// on 32-row tiles against 12- and 8-wide ones, 512²·512×150 and
// 1000²·1000×40 (10-wide tiles, off the register grid), B transposed or
// not, β ∈ {0, 0.5}. make asm-check runs it on the portable kernels too.
func TestDeterminismStandardOracleThinPartners(t *testing.T) {
	ctx := context.Background()
	var pools []*sched.Pool
	for _, w := range []int{1, 2, 4} {
		p := sched.NewPool(w)
		defer p.Close()
		pools = append(pools, p)
	}
	shapes := [][3]int{{1024, 1024, 48}, {512, 512, 16}, {512, 512, 150}, {1000, 1000, 40}}
	if testing.Short() || raceEnabled {
		shapes = [][3]int{{256, 256, 12}, {300, 300, 40}}
	}
	rng := rand.New(rand.NewSource(53))
	for si, sh := range shapes {
		for _, beta := range []float64{0, 0.5} {
			r := newOracleRun(sh[0], sh[1], sh[2], false, si%2 == 1, []float64{1, 1.5}[si/2%2], beta, false, rng)
			for ci, cv := range mulCurves {
				for _, pool := range pools {
					r.check(t, ctx, pool, Options{Curve: cv, Alg: Standard}, ci%2 == 1, rng)
				}
			}
		}
	}
}

// TestDeterminismStandardOracleMulPacked holds MulPrepacked, C += A·B
// into a plan, to the C-first chain: after two products into a zeroed C
// plan each element is the chain of the second from the first's. Square
// operands packed as one block each (Pack), on and off the register
// grid and under one block, on the five recursive layouts.
func TestDeterminismStandardOracleMulPacked(t *testing.T) {
	ctx := context.Background()
	pool := sched.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(492))
	for _, n := range []int{7, 64, 100} {
		A, B := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
		for _, cv := range layout.RecursiveCurves {
			opts := Options{Curve: cv, Alg: Standard}
			pa, err := Pack(ctx, pool, opts, A)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := Pack(ctx, pool, opts, B)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := NewProduct(pa, pb)
			if err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if _, err := MulPrepacked(ctx, pool, opts, pc, pa, pb); err != nil {
					t.Fatal(err)
				}
			}
			differ := 0
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					want := chainFrom(chainFrom(0, false, false, A, B, i, j), false, false, A, B, i, j)
					if math.Float64bits(pc.At(i, j)) != math.Float64bits(want) {
						differ++
					}
				}
			}
			if differ != 0 {
				t.Errorf("%d³ %v: C += A·B twice differs from the C-first chain in %d of %d elements", n, cv, differ, n*n)
			}
			pa.Release()
			pb.Release()
			pc.Release()
		}
	}
}
